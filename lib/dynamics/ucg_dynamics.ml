module Graph = Nf_graph.Graph
module Bitset = Nf_util.Bitset
module Rat = Nf_util.Rat
module Prng = Nf_util.Prng
open Netform

type state = {
  graph : Graph.t;
  owned : Bitset.t array;
}

type outcome = {
  final : state;
  rounds : int;
  converged : bool;
}

let of_graph g ~owner =
  let n = Graph.order g in
  let owned = Array.make n Bitset.empty in
  Graph.iter_edges g (fun i j ->
      let o = owner i j in
      if o <> i && o <> j then invalid_arg "Ucg_dynamics.of_graph: owner not an endpoint";
      let other = if o = i then j else i in
      owned.(o) <- Bitset.add other owned.(o));
  { graph = g; owned }

let empty n = { graph = Graph.empty n; owned = Array.make n Bitset.empty }

let is_nash ~alpha state =
  let n = Graph.order state.graph in
  let rec go i =
    i >= n || (Ucg.accepts ~alpha state.graph i ~owned:state.owned.(i) && go (i + 1))
  in
  go 0

let rebuild state i targets =
  (* player i abandons its purchases and buys exactly [targets] *)
  let without = Bitset.fold (fun j acc -> Graph.remove_edge acc i j) state.owned.(i) state.graph in
  let graph = Bitset.fold (fun j acc -> Graph.add_edge acc i j) targets without in
  let owned = Array.copy state.owned in
  owned.(i) <- targets;
  { graph; owned }

(* the best response keeps the current set unless some deviation is
   strictly better, so an unchanged set is acceptance at any α *)
let best_response_step ~alpha state i =
  let targets, _cost = Ucg.best_response ~alpha state.graph i ~owned:state.owned.(i) in
  if targets = state.owned.(i) then None else Some (rebuild state i targets)

(* one round = one pass over a freshly drawn player order; the round
   loop itself is the shared {!Game_dynamics.iterate} fixpoint driver *)
let run_with_orders ~alpha ~max_rounds ~next_order state =
  let round state =
    let order = next_order () in
    let moved = ref false in
    let state = ref state in
    Array.iter
      (fun i ->
        match best_response_step ~alpha !state i with
        | Some updated ->
          moved := true;
          state := updated
        | None -> ())
      order;
    if !moved then Some !state else None
  in
  let final, rounds, converged = Game_dynamics.iterate ~max_steps:max_rounds ~step:round state in
  { final; rounds; converged }

let run ~alpha ?(max_rounds = 1000) ?order state =
  let n = Graph.order state.graph in
  let fixed =
    match order with
    | Some o -> o
    | None -> Array.init n Fun.id
  in
  run_with_orders ~alpha ~max_rounds ~next_order:(fun () -> fixed) state

let run_random ~alpha ~rng ?(max_rounds = 1000) state =
  let n = Graph.order state.graph in
  let next_order () =
    let order = Array.init n Fun.id in
    Prng.shuffle rng order;
    order
  in
  run_with_orders ~alpha ~max_rounds ~next_order state
