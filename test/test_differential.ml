(* The differential table: every check that a production annotator,
   region membership or move generator agrees with a specification over
   a corpus is one row — a name, the fast path, the reference, the
   corpus and the comparator — and one runner turns each row into its
   own Alcotest case.
   The references are the test/support oracles (the queue-BFS distance
   oracle for the kernel rows, one oracle per game family for the rest,
   sharing nothing with the production paths) or, where one production
   path is pinned to another, that path: the unquotiented scan for the
   orbit rows, the BCG for the uniform-weight rows, the one-word kernel
   for the forced-width row, and a fresh source for the stored one.
   A new row of the game table gets its registry rows with no test
   changes, and fails them until its family has an oracle. *)

open Netform
module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Sym = Nf_iso.Symmetry
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
module Random_graph = Nf_graph.Random_graph
module Oracle = Nf_test_support.Oracle
module Bfs = Nf_test_support.Bfs
module Apsp = Nf_graph.Apsp
module Ext_int = Nf_util.Ext_int

type row =
  | Row : {
      group : string;
      name : string;
      speed : Alcotest.speed_level;
      corpus : unit -> 'a list;
      label : 'a -> string;
      fast : 'a -> 'b;
      reference : 'a -> 'b;
      equal : 'b Alcotest.testable;
    }
      -> row

(* a row over graphs, each labeled by its graph6 *)
let row ?(speed = `Quick) ~group ~name ~corpus ~fast ~reference equal =
  Row { group; name; speed; corpus; label = Nf_graph.Graph6.encode; fast; reference; equal }

(* a row whose corpus came out empty would pass without checking
   anything, so it fails instead *)
let case (Row r) =
  Alcotest.test_case r.name r.speed (fun () ->
      match r.corpus () with
      | [] -> Alcotest.failf "%s %s: empty corpus" r.group r.name
      | xs -> List.iter (fun x -> Alcotest.check r.equal (r.label x) (r.reference x) (r.fast x)) xs)

(* rows grouped in order of first appearance *)
let suites rows =
  List.fold_left
    (fun groups (Row r) -> if List.mem r.group groups then groups else groups @ [ r.group ])
    [] rows
  |> List.map (fun group ->
         ( group,
           List.filter_map
             (fun (Row r as x) -> if r.group = group then Some (case x) else None)
             rows ))

(* ---- comparators and corpora ---------------------------------------------- *)

let structural pp = Alcotest.testable pp ( = )
let interval = structural Interval.pp
let union = structural Interval.Union.pp
let region (type r) (kind : r Game.Region.kind) =
  Alcotest.testable (Game.Region.pp kind) (Game.Region.equal kind)

let moves =
  Alcotest.list
    (Alcotest.testable
       (fun fmt -> function
         | Pairwise.Add (i, j) -> Format.fprintf fmt "Add(%d,%d)" i j
         | Pairwise.Delete (i, j) -> Format.fprintf fmt "Delete(%d,%d)" i j)
       ( = ))

let trivial g = Sym.trivial (Graph.order g)
let connected orders () = List.concat_map Nf_enum.Unlabeled.connected_graphs orders

(* every connected class at n = 5, the disconnected and edgeless shapes
   the annotators must not trip over, a few larger families, and every
   connected class at n = 5 and 6 again under a seeded random labeling
   (the enumeration hands out canonical labelings only) *)
let annotation_corpus () =
  let rng = Prng.create 0x6f7261 in
  let relabeled g =
    let perm = Array.init (Graph.order g) Fun.id in
    Prng.shuffle rng perm;
    Graph.relabel g perm
  in
  connected [ 5 ] ()
  @ [
      Graph.empty 1;
      Graph.empty 4;
      Graph.of_edges 5 [ (0, 1); (2, 3) ];
      Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ];
      Nf_named.Families.cycle 8;
      Nf_named.Families.star 7;
      Nf_named.Families.path 7;
    ]
  @ List.map relabeled (connected [ 5; 6 ] ())

(* Interval games also get every connected class at n = 7, the smallest
   order where a BCG graph's α_min is attained by a tie before a non-tie.
   Union games run an orientation search per graph and keep the smaller
   corpus. *)
let corpus_for (type r) (kind : r Game.Region.kind) () =
  match kind with
  | Game.Region.Interval -> annotation_corpus () @ connected [ 7 ] ()
  | Game.Region.Union ->
    connected [ 5 ] ()
    @ [
        Graph.empty 1;
        Graph.empty 4;
        Graph.of_edges 5 [ (0, 1); (2, 3) ];
        Nf_named.Families.cycle 7;
        Nf_named.Families.star 6;
        Nf_named.Families.path 6;
      ]

let alpha_grid =
  [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.make 5 2; Rat.of_int 4 ]

(* a seeded random toggle walk on 5 vertices *)
let toggle_walk steps () =
  let rng = Prng.create 0x67616d65 in
  let g = ref (Random_graph.gnp rng 5 0.4) in
  List.init steps (fun _ ->
      let i = Prng.int rng 5 in
      let j = (i + 1 + Prng.int rng 4) mod 5 in
      g := (if Graph.has_edge !g i j then Graph.remove_edge else Graph.add_edge) !g i j;
      !g)

(* ---- the registry rows: every registered game, one example per family ---- *)

let game_rows (Game.Any (module G)) =
  let group = "game:" ^ G.name in
  let kind = G.region_kind in
  let annotate g = Kernel.with_ws (fun ws -> G.stable_region_ws ws (trivial g) g) in
  let over_grid f g = List.map (fun alpha -> f ~alpha g) alpha_grid in
  let members g =
    let r = annotate g in
    List.map (fun alpha -> Game.Region.mem kind alpha r) alpha_grid
  in
  [
    row ~group ~name:"ws = reference" ~corpus:(corpus_for kind) ~fast:annotate
      ~reference:(Oracle.region (module G)) (region kind);
    row ~group ~name:"toggle walk"
      ~corpus:(toggle_walk (match kind with Game.Region.Interval -> 40 | Game.Region.Union -> 20))
      ~fast:annotate ~reference:(Oracle.region (module G)) (region kind);
    row ~group ~name:"certifier = membership" ~corpus:(corpus_for kind) ~fast:members
      ~reference:(over_grid (Oracle.is_stable (module G)))
      Alcotest.(list bool);
  ]
  @
  match G.pricing with
  | None -> []
  | Some price ->
    let generate ~alpha g = Pairwise.improving_moves price ~alpha g in
    [
      row ~group ~name:"moves fixpoint" ~corpus:(corpus_for kind)
        ~fast:(over_grid (fun ~alpha g -> generate ~alpha g = []))
        ~reference:members Alcotest.(list bool);
      row ~group ~name:"improving moves = oracle" ~corpus:annotation_corpus
        ~fast:(over_grid generate)
        ~reference:(over_grid (Oracle.pairwise_moves (Oracle.pricing ~family:G.family)))
        (Alcotest.list moves);
    ]

(* The orbit quotient (DESIGN.md §11): annotating under the twin tier
   and under the full group must equal the unquotiented scan, on every
   connected graph at 3 <= n <= 7 and on the named gallery (to order 10
   for Union games, whose orientation search costs far more). *)
let orbit_rows (Game.Any (module G)) =
  let kind = G.region_kind in
  let under sym g = Kernel.with_ws (fun ws -> G.stable_region_ws ws sym g) in
  let cap = match kind with Game.Region.Interval -> 30 | Game.Region.Union -> 10 in
  let tiers g = (under (Sym.detect_twins g) g, under (Sym.detect_full g) g) in
  let plain g =
    let r = under (trivial g) g in
    (r, r)
  in
  List.map
    (fun (what, corpus) ->
      row ~group:"differential" ~name:(G.name ^ " " ^ what) ~corpus ~fast:tiers ~reference:plain
        Alcotest.(pair (region kind) (region kind)))
    [
      ("exhaustive", connected [ 3; 4; 5; 6; 7 ]);
      ( "gallery",
        fun () ->
          List.filter_map
            (fun (_, g) -> if Graph.order g <= cap then Some g else None)
            Nf_named.Gallery.all );
    ]

(* ---- the rows named one by one ------------------------------------------- *)

let bcg = Oracle.pairwise_region Oracle.bcg
let transfers = Oracle.pairwise_region Oracle.transfers

(* every finite endpoint over k *)
let scale_interval k i =
  match Interval.bounds i with
  | None -> Interval.empty
  | Some (lo, lo_closed, hi, hi_closed) ->
    let scale = function
      | Interval.Finite r -> Interval.Finite (Rat.div r (Rat.of_int k))
      | e -> e
    in
    Interval.make ~lo:(scale lo) ~lo_closed ~hi:(scale hi) ~hi_closed

(* the pruned orientation walk under the trivial subgroup, the twin
   subgroup and the full group, against the exhaustive oracle walk *)
let ucg_tiers g =
  List.map
    (fun sym -> Kernel.with_ws (fun ws -> Ucg.nash_alpha_set_sym_ws ws sym g))
    [ trivial g; Sym.detect_twins g; Sym.detect_full g ]

let ucg_pruned ?speed name corpus =
  row ?speed ~group:"cross-validation" ~name ~corpus ~fast:ucg_tiers
    ~reference:(fun g ->
      let o = Oracle.ucg_nash g in
      [ o; o; o ])
    (Alcotest.list union)

let named_rows =
  [
    row ~group:"annotation" ~name:"public wrappers" ~corpus:annotation_corpus
      ~fast:Bcg.stable_alpha_set ~reference:bcg interval;
    row ~speed:`Slow ~group:"annotation" ~name:"ucg petersen parity"
      ~corpus:(fun () -> [ Nf_named.Gallery.petersen ])
      ~fast:Ucg.nash_alpha_set ~reference:Oracle.ucg_nash union;
    (let grid = [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 4 ] in
     row ~group:"annotation" ~name:"improving moves parity"
       ~corpus:(fun () ->
         let rng = Prng.create 0x6d767273 in
         List.init 12 (fun _ -> Random_graph.gnp rng 6 0.4)
         @ [ Graph.of_edges 5 [ (0, 1); (2, 3) ]; Graph.empty 4; Nf_named.Families.cycle 6 ])
       ~fast:(fun g -> List.map (fun alpha -> Bcg.improving_moves ~alpha g) grid)
       ~reference:(fun g -> List.map (fun alpha -> Oracle.pairwise_moves Oracle.bcg ~alpha g) grid)
       (Alcotest.list moves));
    (* uniform multipliers reduce weighted stability to the BCG's: w_i = 1
       gives the same intervals and certificates, w_i = 3 scales every
       finite endpoint by 1/3 *)
    (let (module U) = Weighted_bcg.make ~weight:(fun _ -> 1) in
     row ~group:"weighted bcg" ~name:"uniform = bcg" ~corpus:annotation_corpus
       ~fast:(fun g ->
         let r = Kernel.with_ws (fun ws -> U.stable_region_ws ws (trivial g) g) in
         (r, List.map (fun alpha -> Interval.mem alpha r) alpha_grid))
       ~reference:(fun g ->
         ( Kernel.with_ws (fun ws -> Bcg.stable_alpha_set_sym_ws ws (trivial g) g),
           List.map (fun alpha -> Bcg.is_pairwise_stable ~alpha g) alpha_grid ))
       Alcotest.(pair interval (list bool)));
    (let (module U) = Weighted_bcg.make ~weight:(fun _ -> 3) in
     row ~group:"weighted bcg" ~name:"w=3 = bcg/3" ~corpus:annotation_corpus
       ~fast:(fun g -> Kernel.with_ws (fun ws -> U.stable_region_ws ws (trivial g) g))
       ~reference:(fun g ->
         scale_interval 3 (Kernel.with_ws (fun ws -> Bcg.stable_alpha_set_sym_ws ws (trivial g) g)))
       interval);
    (* coalition layering: k = 2 reproduces the BCG interval, and the
       workspace path (the BCG scan plus the coalitions of size 3..k)
       equals the oracle's fold over every coalition of size 2..k, at
       the trivial subgroup and the twin tier *)
    row ~group:"coalition layering" ~name:"k=2 scan = bcg interval"
      ~corpus:(connected [ 2; 3; 4; 5; 6; 7 ])
      ~fast:(fun g ->
        Bcg.stable_alpha_set g
        :: List.concat_map
             (fun k ->
               List.map
                 (fun sym -> Kernel.with_ws (fun ws -> Coalition.stable_alpha_set_ws ~k ws sym g))
                 [ trivial g; Sym.detect_twins g ])
             [ 2; 3; 4 ])
      ~reference:(fun g ->
        Oracle.coalition ~k:2 g
        :: List.concat_map
             (fun k ->
               let o = Oracle.coalition ~k g in
               [ o; o ])
             [ 2; 3; 4 ])
      (Alcotest.list interval);
    row ~group:"parity" ~name:"fused kernel vs reference"
      ~corpus:(fun () ->
        connected [ 5 ] ()
        @ [
            Graph.of_edges 5 [ (0, 1); (2, 3) ];
            Nf_named.Gallery.petersen;
            Nf_named.Families.cycle 8;
            Nf_named.Families.star 7;
          ])
      ~fast:(fun g -> (Bcg.stable_alpha_set g, Transfers.stable_alpha_set g))
      ~reference:(fun g -> (bcg g, transfers g))
      Alcotest.(pair interval interval);
    ucg_pruned "pruned = reference, connected n <= 6" (connected [ 1; 2; 3; 4; 5; 6 ]);
    ucg_pruned ~speed:`Slow "pruned = reference, dense n = 7" (fun () ->
        List.map Nf_graph.Graph6.decode [ "F~~~w"; "F~~~o"; "F~~~_"; "F~~vW" ]);
    (* cycles and circulants whose groups hold rotations of order n, and a
       9-vertex graph whose group is a rotation of order 3 alone, labeled
       so that the walk's first edge (0, 1) is one the rotation maps 0 onto
       1 while no automorphism swaps the pair: the owner-swap prune must
       keep both owners there *)
    ucg_pruned "pruned = reference, rotations n = 8..10" (fun () ->
        Nf_named.Families.
          [
            cycle 8;
            cycle 9;
            cycle 10;
            circulant 8 [ 1; 4 ];
            circulant 9 [ 1; 3 ];
            circulant 10 [ 1; 4 ];
          ]
        @ [ Nf_graph.Graph6.decode "H}dl@dE" ]);
  ]

(* the distance-utility profiles, which no registered game carries:
   region and its membership against the oracle's region and Definition 3
   over Σ f(d), each profile's f written out again here *)
let distance_utility_rows =
  List.map
    (fun (profile, f) ->
      let price = Oracle.distance_utility f in
      row ~group:"annotation"
        ~name:(Printf.sprintf "distance_utility:%s = oracle" profile.Distance_utility.name)
        ~corpus:annotation_corpus
        ~fast:(fun g ->
          let r = Distance_utility.stable_alpha_set profile g in
          (r, List.map (fun alpha -> Interval.mem alpha r) alpha_grid))
        ~reference:(fun g ->
          ( Oracle.pairwise_region price g,
            List.map (fun alpha -> Oracle.pairwise_stable price ~alpha g) alpha_grid ))
        Alcotest.(pair interval (list bool)))
    [
      (Distance_utility.quadratic, fun d -> d * d);
      (Distance_utility.hop_capped 2, fun d -> min d 2);
      (Distance_utility.connectivity, fun _ -> 0);
    ]

(* ---- the kernel against the queue BFS -------------------------------------
   Each kernel row runs at forced widths of 1, 2 and 3 words
   (Kernel.set_min_words_for_testing; an order past 62 keeps its own
   width where that is larger) over the same graphs, against Bfs on the
   persistent graph.  Corpus items carry their width. *)

let ext = Alcotest.testable Ext_int.pp Ext_int.equal

(* seeded corpus: sparse through dense gnp at several orders, plus the
   degenerate shapes the kernel must not trip over *)
let kernel_corpus () =
  let rng = Prng.create 0x6b65726e in
  let random =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun p -> List.init 3 (fun _ -> Random_graph.gnp rng n p))
          [ 0.0; 0.1; 0.3; 0.5; 0.8 ])
      [ 1; 2; 3; 5; 8; 12; 20 ]
  in
  random
  @ [
      Graph.empty 0;
      Graph.empty 7;
      Graph.of_edges 6 [ (0, 1); (2, 3) ];
      Random_graph.gnp rng 40 0.15;
      Nf_named.Gallery.petersen;
      Nf_named.Families.path 9;
    ]

(* the boundary zoo: orders straddling each word-count transition, up
   to 300 *)
let large_corpus () =
  let rng = Prng.create 0x77647364 in
  List.concat_map
    (fun n -> [ Random_graph.gnp rng n (2.0 /. float_of_int n); Random_graph.gnp rng n 0.08 ])
    [ 62; 63; 64; 65; 127; 128; 129 ]
  @ [
      Graph.empty 100;
      (* disconnected with a far component, forcing high-word traffic *)
      Graph.of_edges 130 [ (0, 1); (1, 2); (128, 129) ];
      Nf_named.Families.cycle 150;
      Nf_named.Families.star 200;
      Random_graph.tree (Prng.create 5) 300;
      Random_graph.gnp (Prng.create 6) 300 0.02;
    ]

(* seeded random toggle walks: a start graph on each order and the pairs
   toggled from it, one after another *)
let toggle_walks ~seed ~p ~steps orders () =
  let rng = Prng.create seed in
  List.map
    (fun n ->
      let g = Random_graph.gnp rng n (p n) in
      ( g,
        List.init steps (fun _ ->
            let i = Prng.int rng n in
            (i, (i + 1 + Prng.int rng (n - 1)) mod n)) ))
    orders

let kernel_row ?(widths = [ 1; 2; 3 ]) ~label ~group ~name ~corpus ~fast ~reference equal =
  Row
    {
      group;
      name;
      speed = `Quick;
      corpus = (fun () -> List.concat_map (fun x -> List.map (fun w -> (w, x)) widths) (corpus ()));
      label = (fun (w, x) -> Printf.sprintf "%d words, %s" w (label x));
      fast =
        (fun (w, x) ->
          Fun.protect
            ~finally:(fun () -> Kernel.set_min_words_for_testing 1)
            (fun () ->
              Kernel.set_min_words_for_testing w;
              fast (w, x)));
      reference;
      equal;
    }

let graph6 = Nf_graph.Graph6.encode
let over_vertices g f = List.init (Graph.order g) f
let bfs_sums g = over_vertices g (Bfs.distance_sum g)

(* (finite distance sum, vertices reached) from v, off the BFS row *)
let bfs_reach g v =
  Array.fold_left
    (fun (sum, reached) d -> if d >= 0 then (sum + d, reached + 1) else (sum, reached))
    (0, 0) (Bfs.distances g v)

(* after each toggle of the walk: the pair's presence and every sum *)
let walk_row ~group ~name corpus =
  kernel_row ~group ~name ~corpus
    ~label:(fun (g, steps) ->
      Printf.sprintf "%s, %d toggles" (graph6 g) (List.length steps))
    ~fast:(fun (_, (g, steps)) ->
      Kernel.with_loaded g (fun ws ->
          List.map
            (fun (i, j) ->
              Kernel.toggle ws i j;
              let sums = Kernel.all_distance_sums ws in
              (Kernel.has_edge ws i j, over_vertices g (fun v -> Kernel.to_ext sums.(v))))
            steps))
    ~reference:(fun (_, (g, steps)) ->
      let g = ref g in
      List.map
        (fun (i, j) ->
          g := (if Graph.has_edge !g i j then Graph.remove_edge else Graph.add_edge) !g i j;
          (Graph.has_edge !g i j, bfs_sums !g))
        steps)
    Alcotest.(list (pair bool (list ext)))

(* the eccentricities and single-source sums of one forced width *)
let kernel_profile g =
  Kernel.with_loaded g (fun ws ->
      let all = Kernel.all_distance_sums ws in
      let sums = over_vertices g (fun v -> all.(v)) in
      let ecc = Kernel.eccentricities ws in
      let ecc = over_vertices g (fun v -> ecc.(v)) in
      (Kernel.words ws, sums, ecc, over_vertices g (Kernel.distance_sum_from ws)))

let kernel_rows =
  [
    kernel_row ~label:graph6 ~group:"sums" ~name:"all sources vs naive" ~corpus:kernel_corpus
      ~fast:(fun (_, g) ->
        Kernel.with_loaded g (fun ws ->
            let sums = Kernel.all_distance_sums ws in
            let batch = over_vertices g (fun v -> Kernel.to_ext sums.(v)) in
            (batch, over_vertices g (fun v -> Kernel.to_ext (Kernel.distance_sum_from ws v)))))
      ~reference:(fun (_, g) -> (bfs_sums g, bfs_sums g))
      Alcotest.(pair (list ext) (list ext));
    kernel_row ~label:graph6 ~group:"sums" ~name:"eccentricities vs naive" ~corpus:kernel_corpus
      ~fast:(fun (_, g) ->
        Kernel.with_loaded g (fun ws ->
            ignore (Kernel.all_distance_sums ws);
            let ecc = Kernel.eccentricities ws in
            over_vertices g (fun v -> Kernel.to_ext ecc.(v))))
      ~reference:(fun (_, g) -> over_vertices g (Bfs.eccentricity g))
      (Alcotest.list ext);
    kernel_row ~label:graph6 ~group:"sums" ~name:"reach stats vs naive" ~corpus:kernel_corpus
      ~fast:(fun (_, g) -> Kernel.with_loaded g (fun ws -> over_vertices g (Kernel.reach_stats ws)))
      ~reference:(fun (_, g) -> over_vertices g (bfs_reach g))
      Alcotest.(list (pair int int));
    (* diameter, radius and Wiener index against folds of the BFS rows *)
    kernel_row ~label:graph6 ~group:"sums" ~name:"apsp metrics" ~corpus:kernel_corpus
      ~fast:(fun (_, g) ->
        ( [ Apsp.diameter g; Apsp.radius g; Apsp.wiener g ],
          Array.to_list (Apsp.distance_sums g) ))
      ~reference:(fun (_, g) ->
        let eccs = over_vertices g (Bfs.eccentricity g) in
        let empty = Graph.order g = 0 in
        ( [
            (if empty then Ext_int.zero else List.fold_left Ext_int.max Ext_int.zero eccs);
            (if empty then Ext_int.zero else List.fold_left Ext_int.min Ext_int.Inf eccs);
            List.fold_left Ext_int.add Ext_int.zero (bfs_sums g);
          ],
          bfs_sums g ))
      Alcotest.(pair (list ext) (list ext));
    walk_row ~group:"toggles" ~name:"toggle deltas vs persistent"
      (toggle_walks ~seed:0x746f67 ~p:(fun _ -> 0.4) ~steps:60 [ 2; 5; 9 ]);
    kernel_row ~label:graph6 ~group:"multiword" ~name:"boundary zoo vs queue BFS"
      ~corpus:large_corpus
      ~fast:(fun (w, g) ->
        Kernel.with_loaded g (fun ws ->
            let sums = Array.map Kernel.to_ext (Kernel.all_distance_sums ws) in
            let ecc = Array.map Kernel.to_ext (Kernel.eccentricities ws) in
            ( Kernel.words ws = max w (Graph.words g),
              over_vertices g (fun v ->
                  ( (sums.(v), Kernel.to_ext (Kernel.distance_sum_from ws v), ecc.(v)),
                    Kernel.reach_stats ws v )) )))
      ~reference:(fun (_, g) ->
        ( true,
          over_vertices g (fun v ->
              let sum = Bfs.distance_sum g v in
              ((sum, sum, Bfs.eccentricity g v), bfs_reach g v)) ))
      Alcotest.(pair bool (list (pair (triple ext ext ext) (pair int int))));
    (* the one-word fast path is the reference for the generic loops *)
    kernel_row ~widths:[ 2; 3; 5 ] ~label:graph6 ~group:"multiword"
      ~name:"forced words = one-word path" ~corpus:kernel_corpus
      ~fast:(fun (_, g) -> kernel_profile g)
      ~reference:(fun (w, g) ->
        let _, sums, ecc, single = kernel_profile g in
        (w, sums, ecc, single))
      (structural (fun fmt (w, _, _, _) -> Format.fprintf fmt "<%d-word profile>" w));
    walk_row ~group:"multiword" ~name:"toggle deltas past 62"
      (toggle_walks ~seed:0x6d77746f ~p:(fun n -> 3.0 /. float_of_int n) ~steps:25 [ 63; 65; 129 ]);
    (* every row of every graph, disconnected ones included; rows written
       earlier survive later rows and a toggle pair *)
    kernel_row ~label:graph6 ~group:"multiword" ~name:"distance rows vs queue BFS"
      ~corpus:(fun () -> kernel_corpus () @ large_corpus ())
      ~fast:(fun (_, g) ->
        let n = Graph.order g in
        Kernel.with_loaded g (fun ws ->
            let sums =
              over_vertices g (fun v ->
                  ( Kernel.to_ext (Kernel.distance_sum_from ws v),
                    Kernel.to_ext (Kernel.distances_from ws v) ))
            in
            if n >= 2 then begin
              Kernel.toggle ws 0 (n - 1);
              ignore (Kernel.distance_sum_from ws 0);
              Kernel.toggle ws 0 (n - 1)
            end;
            let rows = Kernel.distance_rows ws in
            ( sums,
              over_vertices g (fun v ->
                  List.init n (fun w -> Bytes.get_uint16_ne rows (2 * ((v * n) + w)))) )))
      ~reference:(fun (_, g) ->
        ( List.map (fun s -> (s, s)) (bfs_sums g),
          over_vertices g (fun v ->
              List.map
                (fun d -> if d < 0 then Kernel.row_inf else d)
                (Array.to_list (Bfs.distances g v)))
        ))
      Alcotest.(pair (list (pair ext ext)) (list (list int)));
    (* the oracle's own early exit: one distance against its whole row *)
    row ~group:"toggles" ~name:"bfs distance early exit" ~corpus:kernel_corpus
      ~fast:(fun g -> over_vertices g (fun src -> over_vertices g (Bfs.distance g src)))
      ~reference:(fun g ->
        over_vertices g (fun src ->
            List.map
              (fun d -> if d < 0 then Ext_int.Inf else Ext_int.Fin d)
              (Array.to_list (Bfs.distances g src))))
      Alcotest.(list (list ext));
  ]

(* ---- stored source = fresh source, every registered game ----------------- *)

(* A game's n = 5 store read back through Service against a fresh source
   of the same content: the fold, the stable set of every carried game at
   every paper-grid α, the atlas CSV and the figure CSVs, byte for byte.
   Each corpus item is one view of a source, rendered to a string. *)
let source_row (Game.Any (module G)) =
  let n = 5 in
  let content = Nf_store.Build.content_of_game G.name in
  let stored =
    lazy
      (let path = Filename.temp_file "netform_source" ".nfs" in
       at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
       ignore (Nf_store.Build.build ~game:G.name ~force:true ~path ~n ());
       Nf_serve.Service.source (Nf_serve.Service.create ~path ()))
  in
  let graph6s graphs = String.concat "," (List.map Nf_graph.Graph6.encode graphs) in
  let fold source =
    String.concat "\n"
      (List.rev
         (Nf_analysis.Source.fold source
            (fun acc g (r : Nf_store.Layout.record) ->
              Printf.sprintf "%s %s %s %s" (Nf_graph.Graph6.encode g) r.Nf_store.Layout.graph6
                (Interval.to_string r.Nf_store.Layout.bcg)
                (Option.fold ~none:"-" ~some:Interval.Union.to_string r.Nf_store.Layout.ucg)
              :: acc)
            []))
  in
  let figure ?game source = Nf_analysis.Figures.(csv (figure ?game source)) in
  let views =
    [
      ("fold", fold);
      ("atlas csv", Nf_analysis.Dataset.to_csv);
      ("figure csv", fun source -> figure source);
      (G.name ^ " figure csv", figure ~game:G.name);
    ]
    @ List.concat_map
        (fun (game, _) ->
          List.map
            (fun alpha ->
              ( Printf.sprintf "%s stable at %s" game (Rat.to_string alpha),
                fun source -> graph6s (Nf_analysis.Source.stable source ~game ~alpha) ))
            Nf_analysis.Sweep.paper_grid)
        (Nf_analysis.Source.carried content)
  in
  Row
    {
      group = "source";
      name = G.name ^ " stored = fresh";
      speed = `Quick;
      corpus = (fun () -> views);
      label = fst;
      fast = (fun (_, view) -> view (Lazy.force stored));
      reference = (fun (_, view) -> view (Nf_analysis.Source.fresh content n));
      equal = Alcotest.string;
    }

let () =
  let games = Game_registry.ci_instances () in
  Alcotest.run "nf_differential"
    (suites
       (named_rows @ distance_utility_rows @ kernel_rows
       @ List.concat_map orbit_rows games
       @ List.concat_map game_rows games
       @ List.map source_row games))
