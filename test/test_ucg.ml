(* Tests for the unilateral connection game: acceptance, best response,
   orientation search, exact Nash α-sets, and the paper's footnotes 5 and
   7 (cycles and the Petersen graph). *)

open Netform
module Graph = Nf_graph.Graph
module Bitset = Nf_util.Bitset
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
module Families = Nf_named.Families
module Gallery = Nf_named.Gallery

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let r = Rat.of_int
let rq = Rat.make
let union = Alcotest.testable Interval.Union.pp Interval.Union.equal

let closed_ray lo =
  Interval.make ~lo:(Interval.Finite (r lo)) ~lo_closed:true ~hi:Interval.Pos_inf
    ~hi_closed:false

(* ---------------- acceptance ---------------- *)

let test_accepts_star_center () =
  let g = Families.star 5 in
  let all_leaves = Bitset.of_list [ 1; 2; 3; 4 ] in
  (* the center owning everything never gains by dropping (bridges) and
     has nothing to buy *)
  check_bool "center accepts at alpha=2" true
    (Ucg.accepts ~alpha:(r 2) g 0 ~owned:all_leaves);
  (* a leaf owning nothing deviates profitably iff α < 1 (buy a link to
     another leaf: pay α, save distance 1) *)
  check_bool "leaf accepts at alpha=2" true (Ucg.accepts ~alpha:(r 2) g 1 ~owned:Bitset.empty);
  check_bool "leaf rejects at alpha=1/2" false
    (Ucg.accepts ~alpha:(rq 1 2) g 1 ~owned:Bitset.empty)

let test_acceptance_interval_star () =
  let g = Families.star 5 in
  let i = Ucg.acceptance_interval g 1 ~owned:Bitset.empty in
  check (Alcotest.testable Interval.pp Interval.equal) "leaf interval [1,inf)"
    (closed_ray 1) i

let test_best_response () =
  let g = Families.star 5 in
  (* at small α a leaf's best response adds links to all other leaves *)
  let targets, _cost = Ucg.best_response ~alpha:(rq 1 4) g 1 ~owned:Bitset.empty in
  check_bool "buys the other leaves" true (Bitset.cardinal targets = 3);
  (* at large α the empty strategy is already optimal *)
  let targets2, _ = Ucg.best_response ~alpha:(r 3) g 1 ~owned:Bitset.empty in
  check_bool "keeps nothing" true (Bitset.is_empty targets2)

(* ---------------- whole-graph Nash sets ---------------- *)

let test_nash_set_complete () =
  (* K_n: dropping k links saves αk and costs k in distance *)
  check union "K5 Nash on (0,1]"
    (Interval.Union.of_list [ Interval.open_closed Rat.zero (Interval.Finite (r 1)) ])
    (Ucg.nash_alpha_set (Families.complete 5))

let test_nash_set_star () =
  check union "star Nash on [1,inf)"
    (Interval.Union.of_list [ closed_ray 1 ])
    (Ucg.nash_alpha_set (Families.star 5))

let test_nash_set_cycles () =
  (* footnote 5: C_n for n > 5 is not Nash supportable; C5 is *)
  check_bool "C5 Nash for some alpha" true
    (not (Interval.Union.is_empty (Ucg.nash_alpha_set (Families.cycle 5))));
  check_bool "C6 never Nash" true
    (Interval.Union.is_empty (Ucg.nash_alpha_set (Families.cycle 6)));
  check_bool "C7 never Nash" true
    (Interval.Union.is_empty (Ucg.nash_alpha_set (Families.cycle 7)))

let test_footnote5_clockwise_orientation () =
  (* each C6 vertex buying its clockwise edge is not an equilibrium: node 0
     prefers linking to node 2 instead, at any α *)
  let g = Families.cycle 6 in
  let owner i j = if (i + 1) mod 6 = j then i else j in
  List.iter
    (fun alpha ->
      check_bool "clockwise C6 not Nash" false (Ucg.is_nash_orientation ~alpha g ~owner))
    [ rq 1 2; r 1; r 2; r 10 ]

let test_footnote7_petersen () =
  (* the Petersen graph is a UCG Nash graph for 1 <= α <= 4 *)
  let set = Ucg.nash_alpha_set Gallery.petersen in
  List.iter
    (fun alpha ->
      check_bool
        (Printf.sprintf "petersen Nash at %s" (Rat.to_string alpha))
        true
        (Interval.Union.mem alpha set))
    [ r 1; rq 3 2; rq 5 2; r 4 ];
  List.iter
    (fun alpha ->
      check_bool
        (Printf.sprintf "petersen not Nash at %s" (Rat.to_string alpha))
        false
        (Interval.Union.mem alpha set))
    [ rq 1 2; rq 9 2; r 6 ]

let test_nash_set_disconnected () =
  check_bool "disconnected never Nash" true
    (Interval.Union.is_empty (Ucg.nash_alpha_set (Graph.of_edges 4 [ (0, 1); (2, 3) ])))

(* ---------------- cross-validation against literal definitions -------- *)

(* brute force: a graph is Nash-supportable iff some orientation profile
   satisfies Definition 1 *)
let brute_is_nash_graph ~alpha_f g =
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let rec try_mask mask =
    if mask >= 1 lsl m then false
    else
      let owner i j =
        let rec index k = if edges.(k) = (i, j) then k else index (k + 1) in
        if mask land (1 lsl index 0) <> 0 then j else i
      in
      let profile = Strategy.of_graph_ucg g ~owner in
      if Strategy.is_nash Cost.Ucg ~alpha:alpha_f profile then true else try_mask (mask + 1)
  in
  m = 0 || try_mask 0

let test_vs_brute_force () =
  let alphas = [ 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 ] in
  Nf_enum.Labeled.iter_connected 4 (fun g ->
      List.iter
        (fun alpha_f ->
          let alpha = rq (int_of_float (alpha_f *. 4.)) 4 in
          check_bool
            (Printf.sprintf "brute vs search (alpha=%.2f, %s)" alpha_f (Graph.to_string g))
            (brute_is_nash_graph ~alpha_f g)
            (Ucg.is_nash_graph ~alpha g))
        alphas)

let test_interval_vs_pointwise () =
  let rng = Prng.create 91 in
  let alphas = List.map (fun (a, b) -> rq a b) [ (1, 4); (1, 2); (1, 1); (3, 2); (2, 1); (3, 1); (5, 1); (8, 1) ] in
  for _ = 1 to 60 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 3) 0.5 in
    let set = Ucg.nash_alpha_set g in
    List.iter
      (fun alpha ->
        check_bool "set membership = pointwise check"
          (Ucg.is_nash_graph ~alpha g)
          (Interval.Union.mem alpha set))
      alphas
  done

let test_is_nash_graph_f () =
  check_bool "dyadic wrapper" true (Ucg.is_nash_graph_f ~alpha:0.5 (Families.complete 4))

let test_acceptance_interval_matches_accepts () =
  (* for random (player, owned set) pairs, membership in the acceptance
     interval must coincide with the pointwise accept check *)
  let rng = Prng.create 101 in
  let alphas = List.map (fun (a, b) -> rq a b) [ (1, 4); (1, 2); (1, 1); (3, 2); (5, 2); (4, 1); (9, 1) ] in
  for _ = 1 to 60 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 3) 0.5 in
    let i = Prng.int rng (Graph.order g) in
    (* random subset of i's incident edges as the owned set *)
    let owned =
      Bitset.fold
        (fun j acc -> if Prng.bool rng then Bitset.add j acc else acc)
        (Graph.neighbors g i) Bitset.empty
    in
    let interval = Ucg.acceptance_interval g i ~owned in
    List.iter
      (fun alpha ->
        check_bool "interval membership = accepts"
          (Interval.mem alpha interval)
          (Ucg.accepts ~alpha g i ~owned))
      alphas
  done

(* ---------------- pruned walks vs the exhaustive reference ------------ *)

(* The workspace walks cut subtrees whose running interval the emitted
   union already covers; the reference walks every orientation.  All
   three pruned entry points must reproduce it structurally (polymorphic
   equality, not just the same point set). *)
let structural = Alcotest.testable Interval.Union.pp ( = )

let check_pruned_paths ws g =
  let name = Nf_graph.Graph6.encode g in
  let expected = Ucg.nash_alpha_set_reference g in
  check structural (name ^ ": sym ws, trivial") expected
    (Ucg.nash_alpha_set_sym_ws ws (Nf_iso.Symmetry.trivial (Graph.order g)) g);
  check structural (name ^ ": sym ws, twins") expected
    (Ucg.nash_alpha_set_sym_ws ws (Nf_iso.Symmetry.detect_twins g) g);
  check structural (name ^ ": sym ws, full group") expected
    (Ucg.nash_alpha_set_sym_ws ws (Nf_iso.Symmetry.detect_full g) g)

let test_pruned_vs_reference_small () =
  Nf_graph.Kernel.with_ws (fun ws ->
      for n = 1 to 6 do
        List.iter (check_pruned_paths ws) (Nf_enum.Unlabeled.connected_graphs n)
      done)

let test_pruned_vs_reference_dense7 () =
  Nf_graph.Kernel.with_ws (fun ws ->
      List.iter
        (fun g6 -> check_pruned_paths ws (Nf_graph.Graph6.decode g6))
        [ "F~~~w"; "F~~~o"; "F~~~_"; "F~~vW" ])

(* Dense graphs have one-interval Nash sets that the first few leaves
   already cover.  Without the coverage prune K8 (2^28 orientations)
   takes about a minute against milliseconds, so a lost prune shows up
   as a hang rather than as a slightly slower run. *)
let unit_point = Interval.Union.of_list [ Interval.point (r 1) ]

let test_dense_pin_k8 () =
  check union "K8 Nash on (0,1]"
    (Interval.Union.of_list [ Interval.open_closed Rat.zero (Interval.Finite (r 1)) ])
    (Ucg.nash_alpha_set (Families.complete 8))

let test_dense_pin_k7_minus_e () =
  check union "F~~~o Nash on [1,1]" unit_point
    (Ucg.nash_alpha_set (Nf_graph.Graph6.decode "F~~~o"))

let test_dense_pin_n8 () =
  check union "G~~~vo Nash on [1,1]" unit_point
    (Ucg.nash_alpha_set (Nf_graph.Graph6.decode "G~~~vo"))

(* every UCG Nash graph passes the orientation-free necessary conditions
   implicitly; also check a known negative quickly *)
let test_dense_not_nash_at_high_alpha () =
  check_bool "K6 not Nash at alpha=3" false (Ucg.is_nash_graph ~alpha:(r 3) (Families.complete 6))

let () =
  Alcotest.run "netform_ucg"
    [
      ( "acceptance",
        [
          Alcotest.test_case "star center/leaf" `Quick test_accepts_star_center;
          Alcotest.test_case "leaf interval" `Quick test_acceptance_interval_star;
          Alcotest.test_case "best response" `Quick test_best_response;
        ] );
      ( "nash sets",
        [
          Alcotest.test_case "complete" `Quick test_nash_set_complete;
          Alcotest.test_case "star" `Quick test_nash_set_star;
          Alcotest.test_case "cycles (footnote 5)" `Quick test_nash_set_cycles;
          Alcotest.test_case "clockwise orientation" `Quick test_footnote5_clockwise_orientation;
          Alcotest.test_case "petersen (footnote 7)" `Slow test_footnote7_petersen;
          Alcotest.test_case "disconnected" `Quick test_nash_set_disconnected;
          Alcotest.test_case "dense high alpha" `Quick test_dense_not_nash_at_high_alpha;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "vs brute force" `Slow test_vs_brute_force;
          Alcotest.test_case "interval vs pointwise" `Quick test_interval_vs_pointwise;
          Alcotest.test_case "float wrapper" `Quick test_is_nash_graph_f;
          Alcotest.test_case "acceptance interval" `Quick test_acceptance_interval_matches_accepts;
          Alcotest.test_case "pruned = reference, connected n <= 6" `Quick
            test_pruned_vs_reference_small;
          Alcotest.test_case "pruned = reference, dense n = 7" `Slow
            test_pruned_vs_reference_dense7;
        ] );
      ( "dense pins",
        [
          Alcotest.test_case "K8" `Quick test_dense_pin_k8;
          Alcotest.test_case "F~~~o" `Quick test_dense_pin_k7_minus_e;
          Alcotest.test_case "G~~~vo" `Slow test_dense_pin_n8;
        ] );
    ]
