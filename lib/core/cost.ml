module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Ext_int = Nf_util.Ext_int

type game =
  | Bcg
  | Ucg
  | Adversary

let distance_cost g i = Bfs.distance_sum g i
let total_distance_cost g = Apsp.wiener g

(* Expected number of (player, separated-player) pairs under a uniformly
   random single-edge failure: Σ_bridges 2·s·(C−s) over m edges.  Zero on
   the edgeless graph (nothing to attack). *)
let expected_separation_cost g =
  let m = Graph.size g in
  if m = 0 then 0.0
  else float_of_int (Nf_graph.Connectivity.separation_total g) /. float_of_int m

let player_cost ~alpha g i =
  (alpha *. float_of_int (Graph.degree g i)) +. Ext_int.to_float (distance_cost g i)

let social_cost game ~alpha g =
  let edge_multiplier =
    match game with
    | Bcg | Adversary -> 2.0
    | Ucg -> 1.0
  in
  let base =
    (edge_multiplier *. alpha *. float_of_int (Graph.size g))
    +. Ext_int.to_float (total_distance_cost g)
  in
  match game with
  | Bcg | Ucg -> base
  | Adversary -> base +. expected_separation_cost g

let social_cost_lower_bound ~alpha n m =
  float_of_int (2 * n * (n - 1)) +. (2.0 *. (alpha -. 1.0) *. float_of_int m)

let is_social_cost_bound_tight ~alpha g =
  let bound = social_cost_lower_bound ~alpha (Graph.order g) (Graph.size g) in
  social_cost Bcg ~alpha g = bound
