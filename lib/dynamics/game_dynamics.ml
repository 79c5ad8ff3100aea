module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Prng = Nf_util.Prng
open Netform

type outcome = {
  final : Graph.t;
  steps : int;
  converged : bool;
  trace : Pairwise.move list;
}

(* The one fixpoint driver every dynamics loop in this library runs on:
   a step either produces the next state or [None] at a fixed point.  The
   step cap is checked before the step runs, so a capped run performs
   exactly [max_steps] steps. *)
let iterate ~max_steps ~step init =
  let rec go state steps =
    if steps >= max_steps then (state, steps, false)
    else
      match step state with
      | None -> (state, steps, true)
      | Some state' -> go state' (steps + 1)
  in
  go init 0

let apply g = function
  | Pairwise.Add (i, j) -> Graph.add_edge g i j
  | Pairwise.Delete (i, j) -> Graph.remove_edge g i j

let step game ~alpha ~rng g =
  match Game.improving_moves game ~alpha g with
  | [] -> None
  | moves ->
    let move = Prng.pick rng moves in
    Some (move, apply g move)

let run game ~alpha ~rng ?(max_steps = 10_000) g =
  let trace = ref [] in
  let final, steps, converged =
    iterate ~max_steps
      ~step:(fun g ->
        match step game ~alpha ~rng g with
        | None -> None
        | Some (move, g') ->
          trace := move :: !trace;
          Some g')
      g
  in
  { final; steps; converged; trace = List.rev !trace }
