(* Tests for Netform.Transfers (pairwise stability with side payments)
   and for the Strategy module's literal game definitions. *)

open Netform
module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
module Families = Nf_named.Families
module Oracle = Nf_test_support.Oracle

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let interval = Alcotest.testable Interval.pp Interval.equal
let r = Rat.of_int
let rq = Rat.make

(* ---------------- Transfers ---------------- *)

let test_joint_values () =
  let star = Families.star 5 in
  let priced (i, j) = Nf_test_support.Oracle.thresholds Nf_test_support.Oracle.transfers star i j in
  (* leaf-leaf addition: each saves 1, jointly 2, priced at 2/2 on both
     sides *)
  check_bool "joint benefit" true (priced (1, 2) = (Interval.Finite (r 1), Interval.Finite (r 1)));
  (* bridge severance: jointly infinite *)
  check_bool "joint loss inf" true (priced (0, 1) = (Interval.Pos_inf, Interval.Pos_inf))

let test_transfer_stable_sets () =
  (* star: joint leaf benefit 2 => stable for alpha >= 1, bridges keep the
     top open *)
  check interval "star [1,inf)"
    (Interval.make ~lo:(Interval.Finite (r 1)) ~lo_closed:true ~hi:Interval.Pos_inf
       ~hi_closed:false)
    (Transfers.stable_alpha_set (Families.star 6));
  (* complete graph: joint severance loss 2 => stable for alpha <= 1 *)
  check interval "K6 (0,1]"
    (Interval.open_closed Rat.zero (Interval.Finite (r 1)))
    (Transfers.stable_alpha_set (Families.complete 6));
  (* C5: joint chord benefit 2 -> alpha >= 1; joint severance loss 8 ->
     alpha <= 4 *)
  check interval "C5 [1,4]"
    (Interval.closed (r 1) (r 4))
    (Transfers.stable_alpha_set (Families.cycle 5))

let test_transfer_definition_matches_interval () =
  let rng = Prng.create 57 in
  let alphas = List.map (fun (a, b) -> rq a b) [ (1, 4); (1, 2); (1, 1); (3, 2); (2, 1); (7, 2); (5, 1); (9, 1) ] in
  for _ = 1 to 150 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 5) 0.45 in
    let set = Transfers.stable_alpha_set g in
    List.iter
      (fun alpha ->
        check_bool "definition = interval"
          (Interval.mem alpha set)
          (Oracle.pairwise_stable Oracle.transfers ~alpha g))
      alphas
  done

let test_transfer_window_shifts_right () =
  (* joint thresholds dominate single-endpoint minima: both ends of the
     transfer window sit at or right of the plain window's ends *)
  let rng = Prng.create 61 in
  let lo_of set =
    match Interval.bounds set with
    | Some (lo, _, _, _) -> Some lo
    | None -> None
  in
  let hi_of set =
    match Interval.bounds set with
    | Some (_, _, hi, _) -> Some hi
    | None -> None
  in
  for _ = 1 to 150 do
    let g = Nf_graph.Random_graph.connected_gnp rng (4 + Prng.int rng 4) 0.5 in
    let plain = Bcg.stable_alpha_set g
    and with_t = Transfers.stable_alpha_set g in
    (match (lo_of plain, lo_of with_t) with
    | Some lo_p, Some lo_t ->
      check_bool "transfer lower end >= plain" true (Interval.compare_endpoint lo_t lo_p >= 0)
    | _ -> ());
    match (hi_of plain, hi_of with_t) with
    | Some hi_p, Some hi_t ->
      check_bool "transfer upper end >= plain" true (Interval.compare_endpoint hi_t hi_p >= 0)
    | _ -> ()
  done

let test_transfer_efficient_star_always_stable () =
  (* with transfers the star stays stable for all alpha >= 1, so the
     efficient graph remains in the stable set *)
  List.iter
    (fun alpha ->
      check_bool "star transfer-stable" true
        (Interval.mem alpha (Transfers.stable_alpha_set (Families.star 7))))
    [ r 1; r 2; r 10; r 100 ]

(* ---------------- Distance_utility ---------------- *)

let test_du_linear_matches_bcg () =
  let rng = Prng.create 71 in
  for _ = 1 to 120 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 5) 0.45 in
    check interval "linear profile = paper analysis"
      (Bcg.stable_alpha_set g)
      (Distance_utility.stable_alpha_set Distance_utility.linear g)
  done

let test_du_definition_matches_interval () =
  let rng = Prng.create 73 in
  let profiles =
    [
      (Distance_utility.quadratic, fun d -> d * d);
      (Distance_utility.hop_capped 2, fun d -> min d 2);
      (Distance_utility.connectivity, fun _ -> 0);
    ]
  in
  let alphas = List.map (fun (a, b) -> rq a b) [ (1, 2); (1, 1); (2, 1); (7, 2); (6, 1); (25, 1) ] in
  for _ = 1 to 80 do
    let g = Nf_graph.Random_graph.connected_gnp rng (3 + Prng.int rng 4) 0.5 in
    List.iter
      (fun (p, f) ->
        let set = Distance_utility.stable_alpha_set p g in
        List.iter
          (fun alpha ->
            check_bool "definition = interval"
              (Interval.mem alpha set)
              (Oracle.pairwise_stable (Oracle.distance_utility f) ~alpha g))
          alphas)
      profiles
  done

let test_du_known_values () =
  (* quadratic star: leaf-leaf link saves 2^2 - 1^2 = 3 per endpoint *)
  check interval "quadratic star [3,inf)"
    (Interval.make ~lo:(Interval.Finite (r 3)) ~lo_closed:true ~hi:Interval.Pos_inf
       ~hi_closed:false)
    (Distance_utility.stable_alpha_set Distance_utility.quadratic (Families.star 6));
  (* connectivity: trees stable everywhere, cycles never *)
  check interval "connectivity tree everywhere"
    (Interval.open_closed Rat.zero Interval.Pos_inf)
    (Distance_utility.stable_alpha_set Distance_utility.connectivity (Families.path 5));
  check_bool "connectivity kills cycles" true
    (Interval.is_empty
       (Distance_utility.stable_alpha_set Distance_utility.connectivity (Families.cycle 5)));
  (* hop-capped at the diameter behaves like linear on short graphs *)
  check interval "hop-capped(3) = linear on star"
    (Bcg.stable_alpha_set (Families.star 6))
    (Distance_utility.stable_alpha_set (Distance_utility.hop_capped 3) (Families.star 6))

let test_du_distance_cost () =
  let p5 = Families.path 5 in
  (* from an endpoint: distances 1,2,3,4 -> squares 1+4+9+16 = 30 *)
  check_bool "quadratic endpoint cost" true
    (Nf_util.Ext_int.equal
       (Oracle.utility_cost Distance_utility.quadratic.f p5 0)
       (Nf_util.Ext_int.Fin 30));
  check_bool "disconnected infinite" true
    (Oracle.utility_cost Distance_utility.quadratic.f (Graph.empty 3) 0
    = Nf_util.Ext_int.Inf)

(* ---------------- Strategy ---------------- *)

let test_strategy_linking_rules () =
  let s = Strategy.create 3 in
  let s = Strategy.set s 0 1 true in
  (* one-sided announcement: UCG forms the link, BCG does not *)
  check_bool "ucg forms" true (Graph.has_edge (Strategy.graph Cost.Ucg s) 0 1);
  check_bool "bcg does not" false (Graph.has_edge (Strategy.graph Cost.Bcg s) 0 1);
  let s = Strategy.set s 1 0 true in
  check_bool "bcg forms with consent" true (Graph.has_edge (Strategy.graph Cost.Bcg s) 0 1);
  check_int "wish count" 1 (Strategy.wish_count s 0);
  check_bool "seeks" true (Strategy.seeks s 0 1);
  check_bool "not symmetric" false (Strategy.seeks s 0 2)

let test_strategy_cost_counts_wishes () =
  (* the alpha term charges announcements even when no link forms *)
  let s = Strategy.set (Strategy.create 3) 0 1 true in
  let cost = Strategy.player_cost Cost.Bcg ~alpha:4.0 s 0 in
  check_bool "pays for unformed wish" true (cost = infinity || cost > 4.0 -. 1e-9);
  (* with all links formed the graph is connected and the cost is finite *)
  let t = Strategy.of_graph_bcg (Families.star 3) in
  check (Alcotest.float 1e-9) "center cost" (2. *. 4. +. 2.)
    (Strategy.player_cost Cost.Bcg ~alpha:4.0 t 0)

let test_strategy_of_graph_ucg_validation () =
  Alcotest.check_raises "bad owner"
    (Invalid_argument "Strategy.of_graph_ucg: owner not an endpoint") (fun () ->
      ignore (Strategy.of_graph_ucg (Families.path 3) ~owner:(fun _ _ -> 99)))

let test_strategy_nash_literal () =
  (* empty profile: BCG Nash (mutual blocking) but not pairwise Nash at
     small alpha for n=2 *)
  let empty2 = Strategy.create 2 in
  check_bool "empty BCG nash" true (Strategy.is_nash Cost.Bcg ~alpha:0.5 empty2);
  check_bool "empty BCG not pairwise nash" false
    (Strategy.is_pairwise_nash Cost.Bcg ~alpha:0.5 empty2);
  (* complete graph profile at small alpha is pairwise Nash in the BCG *)
  let k3 = Strategy.of_graph_bcg (Families.complete 3) in
  check_bool "K3 pairwise nash at 1/2" true (Strategy.is_pairwise_nash Cost.Bcg ~alpha:0.5 k3);
  check_bool "K3 not nash at alpha=2" false (Strategy.is_nash Cost.Bcg ~alpha:2.0 k3)

let () =
  Alcotest.run "netform_transfers"
    [
      ( "transfers",
        [
          Alcotest.test_case "joint values" `Quick test_joint_values;
          Alcotest.test_case "stable sets" `Quick test_transfer_stable_sets;
          Alcotest.test_case "definition vs interval" `Quick test_transfer_definition_matches_interval;
          Alcotest.test_case "window shifts right" `Quick test_transfer_window_shifts_right;
          Alcotest.test_case "star stays stable" `Quick test_transfer_efficient_star_always_stable;
        ] );
      ( "distance utilities",
        [
          Alcotest.test_case "linear = paper" `Quick test_du_linear_matches_bcg;
          Alcotest.test_case "definition vs interval" `Quick test_du_definition_matches_interval;
          Alcotest.test_case "known values" `Quick test_du_known_values;
          Alcotest.test_case "distance cost" `Quick test_du_distance_cost;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "linking rules" `Quick test_strategy_linking_rules;
          Alcotest.test_case "wish costs" `Quick test_strategy_cost_counts_wishes;
          Alcotest.test_case "ucg validation" `Quick test_strategy_of_graph_ucg_validation;
          Alcotest.test_case "literal nash" `Quick test_strategy_nash_literal;
        ] );
    ]
