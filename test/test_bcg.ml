(* Tests for the bilateral connection game: benefits/losses, exact
   stability intervals, Definition 3 checker, Proposition 1 (pairwise
   stable = pairwise Nash), Lemma 1 (cost convexity), link convexity, and
   the §4.1 Desargues/dodecahedron claims. *)

open Netform
module Graph = Nf_graph.Graph
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
module Families = Nf_named.Families
module Gallery = Nf_named.Gallery

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let ext = Alcotest.testable Ext_int.pp Ext_int.equal
let interval = Alcotest.testable Interval.pp Interval.equal
let r = Rat.of_int
let rq = Rat.make
let fin k = Interval.Finite (Rat.of_int k)

let closed_ray lo =
  Interval.make ~lo:(fin lo) ~lo_closed:true ~hi:Interval.Pos_inf ~hi_closed:false

(* ---------------- benefits and losses ---------------- *)

let test_benefit_star () =
  let g = Families.star 5 in
  (* leaf-leaf distance drops from 2 to 1 *)
  check ext "leaf benefit" (Ext_int.Fin 1) (Bcg.addition_benefit g 1 2);
  Alcotest.check_raises "existing edge rejected"
    (Invalid_argument "Bcg.addition_benefit: edge present") (fun () ->
      ignore (Bcg.addition_benefit g 0 1))

let test_loss_bridge () =
  let g = Families.star 5 in
  check ext "severing star edge disconnects" Ext_int.Inf (Bcg.severance_loss g 1 0);
  check ext "center side too" Ext_int.Inf (Bcg.severance_loss g 0 1)

let test_loss_cycle () =
  (* C5: severing turns the cycle into a path; endpoint sum 6 -> 10 *)
  let g = Families.cycle 5 in
  check ext "cycle loss" (Ext_int.Fin 4) (Bcg.severance_loss g 0 4)

let test_benefit_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  (* joining the two components makes everything reachable: infinite gain *)
  check ext "joining components" Ext_int.Inf (Bcg.addition_benefit g 1 2);
  let g3 = Graph.empty 3 in
  (* with three isolated vertices one new link still leaves cost infinite *)
  check ext "still disconnected" (Ext_int.Fin 0) (Bcg.addition_benefit g3 0 1)

(* ---------------- exact stability sets ---------------- *)

let test_stable_set_complete () =
  let g = Families.complete 6 in
  check interval "K6 stable on (0,1]"
    (Interval.open_closed Rat.zero (fin 1))
    (Bcg.stable_alpha_set g)

let test_stable_set_star () =
  (* missing leaf-leaf links have tied benefits 1|1, bridges make α_max
     infinite: [1, ∞) *)
  check interval "star stable on [1,inf)" (closed_ray 1)
    (Bcg.stable_alpha_set (Families.star 6))

let test_stable_set_cycle5 () =
  (* chord benefits are tied at 1; severance loss 4: [1,4] *)
  check interval "C5 stable on [1,4]"
    (Interval.closed (r 1) (r 4))
    (Bcg.stable_alpha_set (Families.cycle 5))

let test_stable_set_cycle6 () =
  (* chord benefits tied at 2; severance loss n(n-2)/4 = 6 *)
  check interval "C6 stable on [2,6]"
    (Interval.closed (r 2) (r 6))
    (Bcg.stable_alpha_set (Families.cycle 6))

let test_stable_set_path4 () =
  (* non-tied missing links (0,2)/(1,3) force α>1, tied (0,3) allows
     α=2; tree severances are bridges: [2, ∞) *)
  check interval "P4 stable on [2,inf)" (closed_ray 2)
    (Bcg.stable_alpha_set (Families.path 4))

let test_stable_set_two_components () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check_bool "two components never stable" true
    (Interval.is_empty (Bcg.stable_alpha_set g))

let test_stable_set_empty3 () =
  (* documented quirk: >= 3 components are vacuously stable under the
     literal infinite-cost semantics *)
  check interval "empty graph on 3 stable everywhere"
    (Interval.open_closed Rat.zero Interval.Pos_inf)
    (Bcg.stable_alpha_set (Graph.empty 3))

let test_interval_vs_paper_interval () =
  (* stable_alpha_set only ever differs from the paper's (α_min, α_max] at
     the left endpoint *)
  let rng = Prng.create 3 in
  for _ = 1 to 200 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 5) 0.4 in
    let paper = Bcg.stability_interval g
    and exact = Bcg.stable_alpha_set g in
    check_bool "paper interval subset of exact" true (Interval.subset paper exact)
  done

(* ---------------- Definition 3 checker vs intervals ---------------- *)

let alphas_probe =
  List.map
    (fun (a, b) -> rq a b)
    [ (1, 4); (1, 2); (3, 4); (1, 1); (3, 2); (2, 1); (5, 2); (3, 1); (4, 1); (9, 2); (6, 1); (8, 1) ]

let test_definition_matches_interval () =
  let rng = Prng.create 17 in
  for _ = 1 to 150 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 5) 0.45 in
    List.iter
      (fun alpha ->
        check_bool "definition = interval membership"
          (Interval.mem alpha (Bcg.stable_alpha_set g))
          (Bcg.is_pairwise_stable ~alpha g))
      alphas_probe
  done

(* ---------------- Proposition 1 ---------------- *)

let test_prop1_structural () =
  (* pairwise stable <=> pairwise Nash, via the structural checker *)
  let rng = Prng.create 23 in
  for _ = 1 to 120 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 4) 0.5 in
    List.iter
      (fun alpha ->
        check_bool "prop 1"
          (Bcg.is_pairwise_stable ~alpha g)
          (Bcg.is_pairwise_nash ~alpha g))
      alphas_probe
  done

let test_prop1_vs_strategy_definition () =
  (* the graph-level checkers agree with the literal profile-level
     Definitions 1+2 on the canonical supporting profile *)
  let rng = Prng.create 29 in
  for _ = 1 to 40 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 3) 0.5 in
    let profile = Strategy.of_graph_bcg g in
    List.iter
      (fun alpha_f ->
        let alpha = rq (int_of_float (alpha_f *. 4.)) 4 in
        check_bool "graph checker = profile definition"
          (Strategy.is_pairwise_nash Cost.Bcg ~alpha:alpha_f profile)
          (Bcg.is_pairwise_nash ~alpha g))
      [ 0.25; 0.75; 1.0; 1.5; 2.0; 3.25; 5.0 ]
  done

(* ---------------- Lemma 1: cost convexity ---------------- *)

let test_lemma1_enumerated () =
  (* convexity of the BCG cost holds on every graph on <= 5 vertices *)
  for n = 2 to 5 do
    Nf_enum.Labeled.iter_all n (fun g ->
        check_bool "cost convex" true (Convexity.is_cost_convex g))
  done

let test_lemma1_random () =
  let rng = Prng.create 41 in
  for _ = 1 to 150 do
    let g = Nf_graph.Random_graph.gnp rng (4 + Prng.int rng 6) 0.45 in
    check_bool "cost convex (random)" true (Convexity.is_cost_convex g)
  done

(* ---------------- link convexity ---------------- *)

let test_link_convex_gallery () =
  (* §4.1 claims Desargues is link convex; exact computation refutes it:
     the best addition (a chord between distance-4 vertices of the outer
     C10) saves 10 while the cheapest severance costs only 8.  The paper's
     girth-based S_a bound only accounts for additions across a shortest
     cycle and misses long-range chords (Desargues has diameter 5 > g/2).
     We assert the computed truth; EXPERIMENTS.md records the
     discrepancy. *)
  check_bool "desargues NOT link convex (paper sketch overclaims)" false
    (Convexity.is_link_convex Gallery.desargues);
  (match Convexity.link_convexity_gap Gallery.desargues with
  | Some (gain, loss) ->
    check ext "desargues max gain" (Ext_int.Fin 10) gain;
    check ext "desargues min loss" (Ext_int.Fin 8) loss
  | None -> Alcotest.fail "desargues has additions and severances");
  check_bool "dodecahedron not link convex" false
    (Convexity.is_link_convex Gallery.dodecahedron);
  (* The Figure 1 graphs are all pairwise stable for some α: their exact
     stable sets are nonempty (octahedron only at the single point α=1) *)
  List.iter
    (fun name ->
      let g = List.assoc name Gallery.all in
      check_bool (name ^ " stable for some alpha") true
        (not (Interval.is_empty (Bcg.stable_alpha_set g))))
    [ "petersen"; "mcgee"; "octahedron"; "clebsch"; "hoffman-singleton"; "star8" ];
  (* exact stable windows of the small gallery members *)
  check interval "petersen stable [1,5]" (Interval.closed (r 1) (r 5))
    (Bcg.stable_alpha_set Gallery.petersen);
  check interval "mcgee stable [7,15]" (Interval.closed (r 7) (r 15))
    (Bcg.stable_alpha_set Gallery.mcgee);
  check interval "clebsch stable [1,2]" (Interval.closed (r 1) (r 2))
    (Bcg.stable_alpha_set Gallery.clebsch);
  check interval "octahedron stable {1}" (Interval.point (r 1))
    (Bcg.stable_alpha_set Gallery.octahedron)

let test_link_convex_implies_stable () =
  (* Lemma 2: link convexity => pairwise stable for some α *)
  let rng = Prng.create 47 in
  for _ = 1 to 200 do
    let g = Nf_graph.Random_graph.connected_gnp rng (4 + Prng.int rng 4) 0.5 in
    if Convexity.is_link_convex g then
      check_bool "link convex => stable set nonempty" true
        (not (Interval.is_empty (Bcg.stable_alpha_set g)))
  done

let test_link_convexity_gap () =
  match Convexity.link_convexity_gap Gallery.petersen with
  | None -> Alcotest.fail "petersen has both additions and severances"
  | Some (gain, loss) ->
    check_bool "gap is positive" true (Ext_int.( < ) gain loss)

let test_prop2_witness () =
  (* every link convex graph is pairwise stable at its witness alpha *)
  let rng = Prng.create 53 in
  let verified = ref 0 in
  for _ = 1 to 300 do
    let g = Nf_graph.Random_graph.connected_gnp rng (4 + Prng.int rng 4) 0.5 in
    match Convexity.witness_alpha g with
    | Some alpha ->
      incr verified;
      check_bool "witness supports stability" true (Bcg.is_pairwise_stable ~alpha g)
    | None -> check_bool "no witness iff not convex" false (Convexity.is_link_convex g)
  done;
  check_bool "some graphs were link convex" true (!verified > 0);
  (* named spot checks *)
  check_bool "petersen witness" true
    (match Convexity.witness_alpha Gallery.petersen with
    | Some alpha -> Bcg.is_pairwise_stable ~alpha Gallery.petersen
    | None -> false);
  check_bool "desargues has no witness" true (Convexity.witness_alpha Gallery.desargues = None)

(* ---------------- improving moves ---------------- *)

let is_add = function Pairwise.Add _ -> true | Pairwise.Delete _ -> false
let is_delete m = not (is_add m)

let test_improving_moves () =
  (* a path at small α: endpoints want a chord *)
  let g = Families.path 4 in
  let moves = Bcg.improving_moves ~alpha:(rq 1 2) g in
  check_bool "addition available at alpha=1/2" true (List.exists is_add moves);
  check_bool "no deletion in a tree" false (List.exists is_delete moves);
  (* the complete graph at large α: everyone wants to sever *)
  let k = Families.complete 5 in
  let moves = Bcg.improving_moves ~alpha:(r 2) k in
  check_bool "deletion available at alpha=2" true (List.exists is_delete moves);
  check_bool "no addition in complete graph" false (List.exists is_add moves);
  (* stable point: no moves *)
  check_bool "stable star has no moves" true (Bcg.improving_moves ~alpha:(r 2) (Families.star 5) = [])

let move_to_string = function
  | Pairwise.Add (i, j) -> Printf.sprintf "Add(%d,%d)" i j
  | Pairwise.Delete (i, j) -> Printf.sprintf "Delete(%d,%d)" i j

(* the documented order contract (Pairwise.improving_moves): deletions
   first, reverse lexicographic, Delete (j, i) before Delete (i, j);
   then additions, reverse lexicographic *)
let test_improving_moves_order () =
  let moves alpha g = List.map move_to_string (Bcg.improving_moves ~alpha g) in
  let c5_chord = Graph.add_edge (Families.cycle 5) 0 2 in
  Alcotest.(check (list string))
    "C5 + chord (0,2) at alpha=3"
    [
      "Delete(4,3)"; "Delete(3,4)"; "Delete(2,3)"; "Delete(2,1)"; "Delete(1,2)";
      "Delete(0,4)"; "Delete(2,0)"; "Delete(0,2)"; "Delete(1,0)"; "Delete(0,1)";
    ]
    (moves (r 3) c5_chord);
  let triangle_tail = Graph.of_edges 6 [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  Alcotest.(check (list string))
    "triangle with a tail at alpha=3/2"
    [
      "Delete(2,1)"; "Delete(2,0)"; "Delete(1,0)"; "Delete(0,1)"; "Add(2,5)"; "Add(2,4)";
      "Add(1,5)"; "Add(1,4)"; "Add(0,5)"; "Add(0,4)";
    ]
    (moves (rq 3 2) triangle_tail)

(* ---------------- property tests ---------------- *)

let connected_graph_gen =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 1000000) (int_range 3 7))

let prop_stable_set_is_interval_of_probes =
  (* membership in the exact stable set is monotone-then-antimonotone:
     checking a sorted probe grid sees at most one true run *)
  QCheck.Test.make ~name:"stable alpha set is a single run" ~count:150 connected_graph_gen
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Nf_graph.Random_graph.connected_gnp rng n 0.4 in
      let sorted = List.sort Rat.compare alphas_probe in
      let flags = List.map (fun alpha -> Bcg.is_pairwise_stable ~alpha g) sorted in
      let runs, _ =
        List.fold_left
          (fun (runs, prev) f -> if f && not prev then (runs + 1, f) else (runs, f))
          (0, false) flags
      in
      runs <= 1)

let prop_deleting_stable_edge_never_improves =
  QCheck.Test.make ~name:"stability implies no profitable severance" ~count:100
    connected_graph_gen (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Nf_graph.Random_graph.connected_gnp rng n 0.5 in
      let set = Bcg.stable_alpha_set g in
      match Interval.bounds set with
      | None -> true
      | Some (lo, _, _, _) ->
        let alpha =
          match lo with
          | Interval.Finite a -> Rat.add a Rat.one
          | Interval.Neg_inf | Interval.Pos_inf -> Rat.one
        in
        if Interval.mem alpha set then not (List.exists is_delete (Bcg.improving_moves ~alpha g))
        else true)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "netform_bcg"
    [
      ( "benefit/loss",
        [
          Alcotest.test_case "star benefit" `Quick test_benefit_star;
          Alcotest.test_case "bridge loss" `Quick test_loss_bridge;
          Alcotest.test_case "cycle loss" `Quick test_loss_cycle;
          Alcotest.test_case "disconnected benefit" `Quick test_benefit_disconnected;
        ] );
      ( "stable sets",
        [
          Alcotest.test_case "complete" `Quick test_stable_set_complete;
          Alcotest.test_case "star" `Quick test_stable_set_star;
          Alcotest.test_case "cycle5" `Quick test_stable_set_cycle5;
          Alcotest.test_case "cycle6" `Quick test_stable_set_cycle6;
          Alcotest.test_case "path4" `Quick test_stable_set_path4;
          Alcotest.test_case "two components" `Quick test_stable_set_two_components;
          Alcotest.test_case "empty on 3" `Quick test_stable_set_empty3;
          Alcotest.test_case "paper interval subset" `Quick test_interval_vs_paper_interval;
        ] );
      ( "definition",
        [
          Alcotest.test_case "matches interval" `Quick test_definition_matches_interval;
        ] );
      ( "proposition 1",
        [
          Alcotest.test_case "structural" `Quick test_prop1_structural;
          Alcotest.test_case "vs literal definitions" `Slow test_prop1_vs_strategy_definition;
        ] );
      ( "lemma 1 convexity",
        [
          Alcotest.test_case "enumerated" `Slow test_lemma1_enumerated;
          Alcotest.test_case "random" `Quick test_lemma1_random;
        ] );
      ( "link convexity",
        [
          Alcotest.test_case "gallery" `Quick test_link_convex_gallery;
          Alcotest.test_case "implies stable" `Quick test_link_convex_implies_stable;
          Alcotest.test_case "gap" `Quick test_link_convexity_gap;
          Alcotest.test_case "prop2 witness" `Quick test_prop2_witness;
        ] );
      ( "dynamics moves",
        [
          Alcotest.test_case "improving moves" `Quick test_improving_moves;
          Alcotest.test_case "improving moves order" `Quick test_improving_moves_order;
        ] );
      ( "properties",
        [ qcheck prop_stable_set_is_interval_of_probes; qcheck prop_deleting_stable_edge_never_improves ] );
    ]
