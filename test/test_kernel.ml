(* Differential tests for the zero-allocation batched distance kernel:
   bit-parallel all-sources sums vs naive per-source BFS, toggle deltas vs
   persistent graph edits, workspace annotation vs the retained
   persistent-path references, Bfs.distance early exit, and the per-domain
   workspace borrow discipline — over seeded Prng random graphs including
   disconnected and edgeless ones. *)

module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Random_graph = Nf_graph.Random_graph
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
open Netform

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ext = Alcotest.testable Ext_int.pp Ext_int.equal
let interval = Alcotest.testable Interval.pp Interval.equal
let union = Alcotest.testable Interval.Union.pp Interval.Union.equal

(* the annotators' all-pairs case *)
let trivial g = Nf_iso.Symmetry.trivial (Graph.order g)

(* seeded corpus: sparse through dense gnp at several orders, plus the
   degenerate shapes the kernel must not trip over *)
let random_corpus () =
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

let naive_sum g v = Bfs.distance_sum g v

let ext_of_kernel k = if k = Kernel.inf then Ext_int.Inf else Ext_int.Fin k

let test_all_sums_vs_naive () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      Kernel.load ws g;
      let sums = Kernel.all_distance_sums ws in
      for v = 0 to Graph.order g - 1 do
        check ext "batch sum = per-source BFS" (naive_sum g v) (ext_of_kernel sums.(v));
        check ext "single-source kernel sum = per-source BFS" (naive_sum g v)
          (ext_of_kernel (Kernel.distance_sum_from ws v))
      done)
    (random_corpus ())

let test_eccentricities_vs_naive () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      Kernel.load ws g;
      ignore (Kernel.all_distance_sums ws);
      let ecc = Kernel.eccentricities ws in
      for v = 0 to Graph.order g - 1 do
        check ext "kernel eccentricity = BFS eccentricity" (Bfs.eccentricity g v)
          (ext_of_kernel ecc.(v))
      done)
    (random_corpus ())

let test_reach_stats_vs_naive () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      Kernel.load ws g;
      for v = 0 to Graph.order g - 1 do
        let fsum, reached = Kernel.reach_stats ws v in
        let dist = Bfs.distances g v in
        let nsum = ref 0
        and nreached = ref 0 in
        Array.iter
          (fun d ->
            if d >= 0 then begin
              nsum := !nsum + d;
              incr nreached
            end)
          dist;
        check_int "finite sum" !nsum fsum;
        check_int "reached count" !nreached reached
      done)
    (random_corpus ())

(* random toggle walks: the workspace under xor toggles must track the
   persistent graph under add/remove at every step *)
let test_toggle_deltas () =
  let rng = Prng.create 0x746f67 in
  let ws = Kernel.create () in
  List.iter
    (fun n ->
      let g = ref (Random_graph.gnp rng n 0.4) in
      Kernel.load ws !g;
      for _step = 1 to 60 do
        let i = Prng.int rng n in
        let j = (i + 1 + Prng.int rng (n - 1)) mod n in
        Kernel.toggle ws i j;
        g := (if Graph.has_edge !g i j then Graph.remove_edge else Graph.add_edge) !g i j;
        check_bool "edge presence tracks" (Graph.has_edge !g i j) (Kernel.has_edge ws i j);
        let sums = Kernel.all_distance_sums ws in
        for v = 0 to n - 1 do
          check ext "post-toggle sums track" (naive_sum !g v) (ext_of_kernel sums.(v))
        done
      done)
    [ 2; 5; 9 ]

let test_bfs_distance_early_exit () =
  let corpus = random_corpus () in
  List.iter
    (fun g ->
      let n = Graph.order g in
      for src = 0 to n - 1 do
        let dist = Bfs.distances g src in
        for dst = 0 to n - 1 do
          let expected = if dist.(dst) < 0 then Ext_int.Inf else Ext_int.Fin dist.(dst) in
          check ext "early-exit distance = full BFS" expected (Bfs.distance g src dst)
        done
      done)
    corpus;
  Alcotest.check_raises "out of range" (Invalid_argument "Bfs.distance: vertex out of range")
    (fun () -> ignore (Bfs.distance (Graph.empty 3) 0 3))

let test_apsp_metrics_vs_fold () =
  List.iter
    (fun g ->
      let n = Graph.order g in
      let eccs = List.init n (fun v -> Bfs.eccentricity g v) in
      let expected_diameter =
        if n = 0 then Ext_int.zero else List.fold_left Ext_int.max Ext_int.zero eccs
      in
      let expected_radius =
        if n = 0 then Ext_int.zero else List.fold_left Ext_int.min Ext_int.Inf eccs
      in
      let expected_wiener =
        List.fold_left
          (fun acc v -> Ext_int.add acc (naive_sum g v))
          Ext_int.zero (List.init n Fun.id)
      in
      check ext "diameter" expected_diameter (Apsp.diameter g);
      check ext "radius" expected_radius (Apsp.radius g);
      check ext "wiener" expected_wiener (Apsp.wiener g);
      let sums = Apsp.distance_sums g in
      for v = 0 to n - 1 do
        check ext "distance_sums" (naive_sum g v) sums.(v)
      done)
    (random_corpus ())

(* ---------------- registry-driven differential harness ------------------- *)

(* One harness instead of a copied parity suite per game: every game in
   {!Game_registry} is held to the same contract — the kernel-workspace
   annotator equals the persistent reference (connected, disconnected and
   edgeless input alike), annotation survives a random toggle walk
   re-using one workspace, the point certifier agrees with region
   membership, and (when the game has dynamics) a graph has no improving
   moves exactly when it is stable.  A newly registered game gets all
   four suites with no test changes. *)

let region_testable (type r) (kind : r Game.Region.kind) : r Alcotest.testable =
  Alcotest.testable (Game.Region.pp kind) (Game.Region.equal kind)

let annotation_corpus () =
  Nf_enum.Unlabeled.connected_graphs 5
  @ [
      Graph.empty 1;
      Graph.empty 4;
      Graph.of_edges 5 [ (0, 1); (2, 3) ];
      Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ];
      Nf_named.Families.cycle 8;
      Nf_named.Families.star 7;
      Nf_named.Families.path 7;
    ]

(* union-region games run an orientation search per graph, so they keep
   the smaller corpus the historical UCG suite used (still including
   disconnected and edgeless shapes) *)
let corpus_for (Game.Any (module G)) =
  match G.region_kind with
  | Game.Region.Interval -> annotation_corpus ()
  | Game.Region.Union ->
    Nf_enum.Unlabeled.connected_graphs 5
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

let game_parity (Game.Any (module G) as packed) () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      check (region_testable G.region_kind) "ws = reference" (G.stable_region_reference g)
        (G.stable_region_ws ws (trivial g) g))
    (corpus_for packed)

let game_toggle_walk (Game.Any (module G)) () =
  let rng = Prng.create 0x67616d65 in
  let ws = Kernel.create () in
  let n = 5 in
  let steps = match G.region_kind with Game.Region.Interval -> 40 | Game.Region.Union -> 20 in
  let g = ref (Random_graph.gnp rng n 0.4) in
  for _step = 1 to steps do
    let i = Prng.int rng n in
    let j = (i + 1 + Prng.int rng (n - 1)) mod n in
    g := (if Graph.has_edge !g i j then Graph.remove_edge else Graph.add_edge) !g i j;
    check (region_testable G.region_kind) "post-toggle ws = reference"
      (G.stable_region_reference !g) (G.stable_region_ws ws (trivial !g) !g)
  done

let game_certifier (Game.Any (module G) as packed) () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      let region = G.stable_region_ws ws (trivial g) g in
      List.iter
        (fun alpha ->
          check_bool "is_stable = region membership"
            (Game.Region.mem G.region_kind alpha region)
            (G.is_stable ~alpha g))
        alpha_grid)
    (corpus_for packed)

let game_moves_fixpoint (Game.Any (module G) as packed) () =
  match G.improving_moves with
  | None -> ()
  | Some moves ->
    List.iter
      (fun g ->
        List.iter
          (fun alpha ->
            check_bool "no improving moves <=> stable" (G.is_stable ~alpha g)
              (moves ~alpha g = []))
          alpha_grid)
      (corpus_for packed)

let registry_suites =
  List.map
    (fun (Game.Any (module G) as packed) ->
      ( "game:" ^ G.name,
        [
          Alcotest.test_case "ws = reference" `Quick (game_parity packed);
          Alcotest.test_case "toggle walk" `Quick (game_toggle_walk packed);
          Alcotest.test_case "certifier = membership" `Quick (game_certifier packed);
          Alcotest.test_case "moves fixpoint" `Quick (game_moves_fixpoint packed);
        ] ))
    (Game_registry.ci_instances ())

(* ---- coalition-k layering against the classic games (satellite) -------- *)

(* the exact collapse the family documents: k = 1 is the UCG Nash region
   wholesale, k = 2 reproduces the BCG interval threshold-for-threshold,
   and larger k only shrinks the set — over every connected class the
   sweeps enumerate at n ≤ 6 *)
let coalition_corpus () = List.concat_map Nf_enum.Unlabeled.connected_graphs [ 3; 4; 5; 6 ]

let test_coalition_k2_scan_is_bcg () =
  Kernel.with_ws (fun ws ->
      List.iter
        (fun g ->
          check interval "k=2 scan = BCG interval" (Bcg.stable_alpha_set_sym_ws ws (trivial g) g)
            (Coalition.stable_alpha_set_ws ~k:2 ws g))
        (coalition_corpus ()))

let test_coalition_instances_vs_classics () =
  let module K1 = (val Coalition.make ~k:1) in
  let module K2 = (val Coalition.make ~k:2) in
  let module K3 = (val Coalition.make ~k:3) in
  let module U = (val Game_registry.ucg) in
  Kernel.with_ws (fun ws ->
      List.iter
        (fun g ->
          check union "coalition:k=1 region = UCG region" (U.stable_region_ws ws (trivial g) g)
            (K1.stable_region_ws ws (trivial g) g);
          let k2 = K2.stable_region_ws ws (trivial g) g in
          check union "coalition:k=2 region = BCG interval"
            (Interval.Union.of_list [ Bcg.stable_alpha_set_sym_ws ws (trivial g) g ])
            k2;
          let k3 = K3.stable_region_ws ws (trivial g) g in
          List.iter
            (fun alpha ->
              if Interval.Union.mem alpha k3 then
                check_bool "k=3 stable point is k=2 stable" true (Interval.Union.mem alpha k2))
            alpha_grid)
        (coalition_corpus ()))

let test_coalition_registry_route () =
  let p = Game_registry.find_exn "coalition:k=2" in
  check Alcotest.string "canonical name" "coalition:k=2" (Game.name p);
  check_int "family schema tag" 5 (Game.schema_tag p);
  check_bool "repeated lookups share one instance" true
    (p == Game_registry.find_exn "coalition:k=2");
  check_bool "k=2 exposes the BCG's move generator" true (Game.has_moves p);
  (* k = 1 delegates to the UCG wholesale, whose dynamics are not
     graph-local — no move generator either *)
  check_bool "k=1 has no move generator" false
    (Game.has_moves (Game_registry.find_exn "coalition:k=1"))

(* ---- registry collision rejection (satellite) -------------------------- *)

(* both collision axes are rejected before insertion, with the prior
   registrant named; the probes below must therefore leave the registry
   untouched (the count check pins that) *)
let test_registry_collisions () =
  let before = List.length (Game_registry.all ()) in
  Alcotest.check_raises "instance name collision names the prior game"
    (Invalid_argument
       "Game_registry.register: cannot register family \"bcg\": name already taken by \
        game \"bcg\"")
    (fun () ->
      Game_registry.register_family ~name:"bcg" ~schema_tag:97 ~grammar:"bcg:x=<n>"
        ~describe:"collision probe" ~example:"bcg:x=1" (fun _ -> assert false));
  Alcotest.check_raises "family name collision names the prior family"
    (Invalid_argument
       "Game_registry.register: cannot register family \"coalition\": name already \
        taken by family \"coalition\"")
    (fun () ->
      Game_registry.register_family ~name:"coalition" ~schema_tag:98
        ~grammar:"coalition:k=<n>" ~describe:"collision probe" ~example:"coalition:k=2"
        (fun _ -> assert false));
  Alcotest.check_raises "schema tag collision names the prior registrant"
    (Invalid_argument
       "Game_registry.register: cannot register family \"zz_probe\": schema tag 0 \
        already taken by game \"bcg\"")
    (fun () ->
      Game_registry.register_family ~name:"zz_probe" ~schema_tag:0 ~grammar:"zz_probe:x=<n>"
        ~describe:"collision probe" ~example:"zz_probe:x=1" (fun _ -> assert false));
  Alcotest.check_raises "family tag collision names the prior family"
    (Invalid_argument
       "Game_registry.register: cannot register family \"zz_probe\": schema tag 5 \
        already taken by family \"coalition\"")
    (fun () ->
      Game_registry.register_family ~name:"zz_probe" ~schema_tag:5 ~grammar:"zz_probe:x=<n>"
        ~describe:"collision probe" ~example:"zz_probe:x=1" (fun _ -> assert false));
  check_int "rejected probes left the registry untouched" before
    (List.length (Game_registry.all ()))

(* the public (non-workspace) wrappers still route through the same math *)
let test_public_wrappers () =
  List.iter
    (fun g ->
      check interval "bcg public = reference" (Bcg.stable_alpha_set_reference g)
        (Bcg.stable_alpha_set g))
    (annotation_corpus ())

(* ---------------- weighted BCG reductions ------------------------------- *)

(* uniform multipliers must reduce weighted stability to plain BCG
   stability: w_i = 1 gives structurally identical intervals, w_i = w
   scales every finite endpoint by 1/w *)
let test_weighted_uniform_is_bcg () =
  let (module U : Game.S with type region = Interval.t) =
    Weighted_bcg.make ~name:"wbcg_uniform_test" ~describe:"uniform test instance"
      ~schema_tag:1001 ~weight:(fun _ -> 1) ()
  in
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      check interval "uniform weighted = bcg" (Bcg.stable_alpha_set_sym_ws ws (trivial g) g)
        (U.stable_region_ws ws (trivial g) g);
      List.iter
        (fun alpha ->
          check_bool "uniform certifier = bcg" (Bcg.is_pairwise_stable ~alpha g)
            (U.is_stable ~alpha g))
        alpha_grid)
    (annotation_corpus ())

let scale_interval k i =
  match Interval.bounds i with
  | None -> Interval.empty
  | Some (lo, lo_closed, hi, hi_closed) ->
    let scale = function
      | Interval.Finite r -> Interval.Finite (Rat.div r (Rat.of_int k))
      | e -> e
    in
    Interval.make ~lo:(scale lo) ~lo_closed ~hi:(scale hi) ~hi_closed

let test_weighted_scaled_is_bcg_over_w () =
  let w = 3 in
  let (module U : Game.S with type region = Interval.t) =
    Weighted_bcg.make ~name:"wbcg_scaled_test" ~describe:"scaled test instance"
      ~schema_tag:1002 ~weight:(fun _ -> w) ()
  in
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      check interval "w=3 weighted = bcg region / 3"
        (scale_interval w (Bcg.stable_alpha_set_sym_ws ws (trivial g) g))
        (U.stable_region_ws ws (trivial g) g))
    (annotation_corpus ())

let test_ucg_petersen_parity () =
  check union "petersen nash set = reference"
    (Ucg.nash_alpha_set_reference Nf_named.Gallery.petersen)
    (Ucg.nash_alpha_set Nf_named.Gallery.petersen)

(* naive improving-move list straight off the exported per-pair functions
   (the pre-kernel implementation) *)
let reference_improving_moves ~alpha g =
  let ext_lt v =
    match v with
    | Ext_int.Inf -> true
    | Ext_int.Fin k -> Rat.(alpha < of_int k)
  in
  let ext_le v =
    match v with
    | Ext_int.Inf -> true
    | Ext_int.Fin k -> Rat.(alpha <= of_int k)
  in
  let moves = ref [] in
  Graph.iter_non_edges g (fun i j ->
      let bi = Bcg.addition_benefit g i j
      and bj = Bcg.addition_benefit g j i in
      if (ext_lt bi && ext_le bj) || (ext_lt bj && ext_le bi) then
        moves := Nf_dynamics.Bcg_dynamics.Add (i, j) :: !moves);
  Graph.iter_edges g (fun i j ->
      if not (ext_le (Bcg.severance_loss g i j)) then
        moves := Nf_dynamics.Bcg_dynamics.Delete (i, j) :: !moves;
      if not (ext_le (Bcg.severance_loss g j i)) then
        moves := Nf_dynamics.Bcg_dynamics.Delete (j, i) :: !moves);
  !moves

let move_testable =
  let pp fmt m =
    match m with
    | Nf_dynamics.Bcg_dynamics.Add (i, j) -> Format.fprintf fmt "Add(%d,%d)" i j
    | Nf_dynamics.Bcg_dynamics.Delete (i, j) -> Format.fprintf fmt "Delete(%d,%d)" i j
  in
  Alcotest.testable pp ( = )

let test_improving_moves_parity () =
  let rng = Prng.create 0x6d767273 in
  let grid = [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 4 ] in
  let subjects =
    List.init 12 (fun _ -> Random_graph.gnp rng 6 0.4)
    @ [ Graph.of_edges 5 [ (0, 1); (2, 3) ]; Graph.empty 4; Nf_named.Families.cycle 6 ]
  in
  List.iter
    (fun g ->
      List.iter
        (fun alpha ->
          check
            Alcotest.(list move_testable)
            "improving moves identical (incl. order)"
            (reference_improving_moves ~alpha g)
            (Nf_dynamics.Bcg_dynamics.improving_moves ~alpha g))
        grid)
    subjects

(* ---------------- workspace borrow discipline ---------------- *)

let test_nested_borrow () =
  (* a nested with_ws must hand out a different workspace than the outer
     borrow, so kernel routines can call each other without trampling
     state *)
  Kernel.with_ws (fun outer ->
      Kernel.load outer (Nf_named.Families.cycle 5);
      let distinct = Kernel.with_ws (fun inner -> inner != outer) in
      check_bool "nested borrow gets a fresh workspace" true distinct;
      (* outer state survived the nested borrow *)
      check_int "outer untouched" 5 (Kernel.order outer));
  (* sequential borrows on one domain reuse the resident workspace *)
  let first = Kernel.with_ws (fun ws -> ws) in
  let second = Kernel.with_ws (fun ws -> ws) in
  check_bool "resident workspace is reused" true (first == second)

let test_load_rows () =
  let ws = Kernel.create () in
  (* rows with out-of-range bits and self-loops must be masked off *)
  Kernel.load_rows ws 3 (fun v ->
      Bitset.of_list (match v with 0 -> [ 0; 1; 5 ] | 1 -> [ 0; 2 ] | _ -> [ 1; 60 ]));
  check_bool "edge 0-1" true (Kernel.has_edge ws 0 1);
  check_bool "edge 1-2" true (Kernel.has_edge ws 1 2);
  check_bool "self loop stripped" false (Kernel.has_edge ws 0 0);
  check_bool "out of range stripped" false (Kernel.has_edge ws 0 5 || Kernel.has_edge ws 2 60);
  check_int "path sum" 3 (Kernel.distance_sum_from ws 0)

(* ---------------- multi-word rows (n > 62) ---------------- *)

(* the boundary zoo: orders straddling each word-count transition *)
let boundary_orders = [ 62; 63; 64; 65; 127; 128; 129 ]

let large_corpus () =
  let rng = Prng.create 0x77647364 in
  List.concat_map
    (fun n -> [ Random_graph.gnp rng n (2.0 /. float_of_int n); Random_graph.gnp rng n 0.08 ])
    boundary_orders
  @ [
      Graph.empty 100;
      (* disconnected with a far component, forcing high-word traffic *)
      Graph.of_edges 130 [ (0, 1); (1, 2); (128, 129) ];
      Nf_named.Families.cycle 150;
      Nf_named.Families.star 200;
      Random_graph.tree (Prng.create 5) 300;
      Random_graph.gnp (Prng.create 6) 300 0.02;
    ]

(* kernel vs the persistent queue-BFS reference, at orders up to 300 *)
let test_multiword_vs_bfs () =
  let ws = Kernel.create () in
  List.iter
    (fun g ->
      Kernel.load ws g;
      let n = Graph.order g in
      check_int "words match graph" (Graph.words g) (Kernel.words ws);
      let sums = Kernel.all_distance_sums ws in
      let ecc = Kernel.eccentricities ws in
      for v = 0 to n - 1 do
        check ext "multi-word batch sum = queue BFS" (naive_sum g v) (ext_of_kernel sums.(v));
        check ext "multi-word single-source = queue BFS" (naive_sum g v)
          (ext_of_kernel (Kernel.distance_sum_from ws v));
        check ext "multi-word eccentricity = queue BFS" (Bfs.eccentricity g v)
          (ext_of_kernel ecc.(v));
        let fsum, reached = Kernel.reach_stats ws v in
        let dist = Bfs.distances g v in
        let nsum = ref 0 and nreached = ref 0 in
        Array.iter (fun d -> if d >= 0 then begin nsum := !nsum + d; incr nreached end) dist;
        check_int "multi-word reach sum" !nsum fsum;
        check_int "multi-word reach count" !nreached reached
      done)
    (large_corpus ())

(* same n ≤ 62 graphs through the one-word fast path and the forced
   generic loops: every public kernel observable must agree bit-for-bit *)
let test_forced_multiword_parity () =
  let corpus = random_corpus () in
  Fun.protect
    ~finally:(fun () -> Kernel.set_min_words_for_testing 1)
    (fun () ->
      List.iter
        (fun g ->
          let n = Graph.order g in
          Kernel.set_min_words_for_testing 1;
          let one_sums, one_ecc =
            Kernel.with_loaded g (fun ws ->
                let sums = Array.copy (Kernel.all_distance_sums ws) in
                (sums, Array.copy (Kernel.eccentricities ws)))
          in
          List.iter
            (fun forced ->
              Kernel.set_min_words_for_testing forced;
              Kernel.with_loaded g (fun ws ->
                  check_int "forced word count" (max forced 1) (Kernel.words ws);
                  let sums = Kernel.all_distance_sums ws in
                  let ecc = Kernel.eccentricities ws in
                  for v = 0 to n - 1 do
                    check_int "sums parity (forced words)" one_sums.(v) sums.(v);
                    check_int "ecc parity (forced words)" one_ecc.(v) ecc.(v);
                    check_int "single-source parity" one_sums.(v)
                      (Kernel.distance_sum_from ws v)
                  done))
            [ 2; 3; 5 ])
        corpus)

(* toggle walks through the generic loops, tracked against persistent
   graph edits — the same contract the one-word path is held to above *)
let test_multiword_toggle_deltas () =
  let rng = Prng.create 0x6d77746f in
  let ws = Kernel.create () in
  List.iter
    (fun n ->
      let g = ref (Random_graph.gnp rng n (3.0 /. float_of_int n)) in
      Kernel.load ws !g;
      for _step = 1 to 25 do
        let i = Prng.int rng n in
        let j = (i + 1 + Prng.int rng (n - 1)) mod n in
        Kernel.toggle ws i j;
        g := (if Graph.has_edge !g i j then Graph.remove_edge else Graph.add_edge) !g i j;
        check_bool "edge presence tracks" (Graph.has_edge !g i j) (Kernel.has_edge ws i j);
        let sums = Kernel.all_distance_sums ws in
        for v = 0 to n - 1 do
          check ext "post-toggle sums track" (naive_sum !g v) (ext_of_kernel sums.(v))
        done
      done)
    [ 63; 65; 129 ]

(* distance rows vs the persistent queue BFS: every row of every graph,
   one-word, multi-word and forced-generic, disconnected ones included;
   rows written earlier must survive later rows and toggles *)
let test_distance_rows_vs_bfs () =
  let check_graph g =
    let n = Graph.order g in
    Kernel.with_loaded g (fun ws ->
        for v = 0 to n - 1 do
          check ext "row sum = distance_sum_from"
            (ext_of_kernel (Kernel.distance_sum_from ws v))
            (ext_of_kernel (Kernel.distances_from ws v))
        done;
        (* a toggle pair leaves the graph, and so the rows, as they were *)
        if n >= 2 then begin
          Kernel.toggle ws 0 (n - 1);
          ignore (Kernel.distance_sum_from ws 0);
          Kernel.toggle ws 0 (n - 1)
        end;
        let rows = Kernel.distance_rows ws in
        for v = 0 to n - 1 do
          let want = Bfs.distances g v in
          for w = 0 to n - 1 do
            let got = Bytes.get_uint16_ne rows (2 * ((v * n) + w)) in
            check_int
              (Printf.sprintf "n=%d d(%d,%d)" n v w)
              (if want.(w) < 0 then Kernel.row_inf else want.(w))
              got
          done
        done)
  in
  let corpus = random_corpus () @ large_corpus () in
  (* once the slab exists, a row costs no allocation *)
  Kernel.with_loaded (Random_graph.gnp (Prng.create 9) 130 0.05) (fun ws ->
      ignore (Kernel.distances_from ws 0);
      let before = Gc.minor_words () in
      for v = 0 to 129 do
        ignore (Kernel.distances_from ws v)
      done;
      check_bool "rows allocate nothing" true (Gc.minor_words () -. before < 16.0));
  Fun.protect
    ~finally:(fun () -> Kernel.set_min_words_for_testing 1)
    (fun () ->
      List.iter check_graph corpus;
      Kernel.set_min_words_for_testing 3;
      List.iter check_graph corpus)

let test_multiword_range_messages () =
  let ws = Kernel.create () in
  Alcotest.check_raises "load_rows past one word"
    (Invalid_argument
       "Kernel.load_rows: order 63 outside 0..62 (one-word rows; use load_edges \
        beyond 62 vertices)")
    (fun () -> Kernel.load_rows ws 63 (fun _ -> Bitset.empty));
  Kernel.load ws (Graph.empty 70);
  Alcotest.check_raises "neighbors past one word"
    (Invalid_argument
       "Kernel.neighbors: order 70 > 62 needs multi-word rows; use has_edge or \
        iter_neighbors")
    (fun () -> ignore (Kernel.neighbors ws 0));
  Alcotest.check_raises "Bfs.reachable past one word"
    (Invalid_argument "Bfs.reachable: order 70 > 62 (one-word bitset result; use reachable_words)")
    (fun () -> ignore (Bfs.reachable (Graph.empty 70) 0));
  Alcotest.check_raises "Graph.neighbors past one word"
    (Invalid_argument
       "Graph.neighbors: order 70 > 62 needs multi-word rows; use iter_neighbors or \
        row_word")
    (fun () -> ignore (Graph.neighbors (Graph.empty 70) 0))

(* QCheck: random boundary-order gnp graphs, kernel vs Apsp persistent path *)
let prop_multiword_apsp_parity =
  QCheck.Test.make ~name:"kernel sums = Apsp.distance_sums at 60 <= n <= 140" ~count:40
    QCheck.(pair (int_range 60 140) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Prng.create (seed + (n * 100003)) in
      let g = Random_graph.gnp rng n (1.5 /. float_of_int n) in
      let apsp = Apsp.distance_sums g in
      Kernel.with_loaded g (fun ws ->
          let sums = Kernel.all_distance_sums ws in
          let ok = ref true in
          for v = 0 to n - 1 do
            if ext_of_kernel sums.(v) <> apsp.(v) then ok := false
          done;
          !ok))

let () =
  Alcotest.run "nf_kernel"
    ([
      ( "sums",
        [
          Alcotest.test_case "all sources vs naive" `Quick test_all_sums_vs_naive;
          Alcotest.test_case "eccentricities vs naive" `Quick test_eccentricities_vs_naive;
          Alcotest.test_case "reach stats vs naive" `Quick test_reach_stats_vs_naive;
          Alcotest.test_case "apsp metrics" `Quick test_apsp_metrics_vs_fold;
        ] );
      ( "toggles",
        [
          Alcotest.test_case "toggle deltas vs persistent" `Quick test_toggle_deltas;
          Alcotest.test_case "bfs distance early exit" `Quick test_bfs_distance_early_exit;
        ] );
      ( "annotation",
        [
          Alcotest.test_case "public wrappers" `Quick test_public_wrappers;
          Alcotest.test_case "ucg petersen parity" `Slow test_ucg_petersen_parity;
          Alcotest.test_case "improving moves parity" `Quick test_improving_moves_parity;
        ] );
      ( "weighted bcg",
        [
          Alcotest.test_case "uniform = bcg" `Quick test_weighted_uniform_is_bcg;
          Alcotest.test_case "w=3 = bcg/3" `Quick test_weighted_scaled_is_bcg_over_w;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "nested borrow" `Quick test_nested_borrow;
          Alcotest.test_case "load rows" `Quick test_load_rows;
        ] );
      ( "multiword",
        [
          Alcotest.test_case "boundary zoo vs queue BFS" `Quick test_multiword_vs_bfs;
          Alcotest.test_case "forced words = one-word path" `Quick
            test_forced_multiword_parity;
          Alcotest.test_case "toggle deltas past 62" `Quick test_multiword_toggle_deltas;
          Alcotest.test_case "distance rows vs queue BFS" `Quick test_distance_rows_vs_bfs;
          Alcotest.test_case "range messages" `Quick test_multiword_range_messages;
          QCheck_alcotest.to_alcotest prop_multiword_apsp_parity;
        ] );
      ( "coalition layering",
        [
          Alcotest.test_case "k=2 scan = bcg interval" `Quick test_coalition_k2_scan_is_bcg;
          Alcotest.test_case "instances vs classics" `Quick
            test_coalition_instances_vs_classics;
          Alcotest.test_case "registry route" `Quick test_coalition_registry_route;
        ] );
      ( "registry collisions",
        [ Alcotest.test_case "both axes rejected" `Quick test_registry_collisions ] );
    ]
    @ registry_suites)
