(* Hunting the paper's conjecture.

   Section 4.3 conjectures that every Nash graph of the unilateral game
   is pairwise stable in the bilateral game at the same link cost.  This
   example replays the hunt that refutes it: sweep all connected
   topologies on six vertices, compare each graph's exact UCG Nash
   α-set with its exact BCG stable α-set, and dissect the first
   counterexample move by move.

   Run with: dune exec examples/conjecture_hunt.exe *)

module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Netform

let () =
  let n = 6 in
  Printf.printf "Conjecture: UCG Nash graphs are BCG pairwise stable at the same alpha.\n";
  Printf.printf "Sweeping all %d connected topologies on %d vertices...\n\n"
    (Nf_enum.Unlabeled.count_connected n) n;
  let counterexamples = ref [] in
  let nash_count = ref 0 in
  List.iter
    (fun g ->
      let nash = Ucg.nash_alpha_set g in
      if not (Interval.Union.is_empty nash) then begin
        incr nash_count;
        let stable = Bcg.stable_alpha_set g in
        let contained =
          List.for_all (fun piece -> Interval.subset piece stable) (Interval.Union.to_list nash)
        in
        if not contained then counterexamples := (g, nash, stable) :: !counterexamples
      end)
    (Nf_enum.Unlabeled.connected_graphs n);
  Printf.printf "%d classes are UCG-Nash for some alpha; %d violate the conjecture.\n\n"
    !nash_count
    (List.length !counterexamples);
  match List.rev !counterexamples with
  | [] -> print_endline "No counterexample at this size."
  | (g, nash, stable) :: _ ->
    Printf.printf "First counterexample:\n  %s\n" (Graph.to_string g);
    Printf.printf "  UCG Nash alpha set:   %s\n" (Interval.Union.to_string nash);
    Printf.printf "  BCG stable alpha set: %s\n\n" (Interval.to_string stable);
    (* pick a Nash alpha outside the stable set and dissect *)
    let alpha =
      match Interval.Union.to_list nash with
      | piece :: _ -> (
        match Interval.bounds piece with
        | Some (Interval.Finite lo, _, _, _) -> lo
        | _ -> Rat.of_int 2)
      | [] -> Rat.of_int 2
    in
    Printf.printf "Dissection at alpha = %s:\n" (Rat.to_string alpha);
    Printf.printf "  UCG: is Nash graph?       %b\n" (Ucg.is_nash_graph ~alpha g);
    Printf.printf "  BCG: pairwise stable?     %b\n" (Bcg.is_pairwise_stable ~alpha g);
    (* the move list reversed: additions, then deletions, each in
       lexicographic order *)
    let moves = List.rev (Bcg.improving_moves ~alpha g) in
    let first_delete = function Pairwise.Delete (i, j) -> Some (i, j) | Pairwise.Add _ -> None
    and first_add = function Pairwise.Add (i, j) -> Some (i, j) | Pairwise.Delete _ -> None in
    (match List.find_map first_delete moves with
    | Some (i, j) ->
      Printf.printf "  destabilizing move: player %d severs link %d-%d\n" i i j;
      (match Bcg.severance_loss g i j with
      | Nf_util.Ext_int.Fin loss ->
        Printf.printf
          "    severing costs %d in distance but saves alpha = %s in link cost\n" loss
          (Rat.to_string alpha)
      | Nf_util.Ext_int.Inf -> ())
    | None -> (
      match List.find_map first_add moves with
      | Some (i, j) -> Printf.printf "  destabilizing move: add link %d-%d\n" i j
      | None -> ()));
    Printf.printf
      "\nWhy the conjecture fails: in the unilateral game the tolerated edge is paid\n\
       for by the OTHER endpoint, so keeping it is free; bilaterally both ends pay\n\
       alpha, and the less interested one cuts.  (Prop 5 survives for trees: there\n\
       every severance disconnects, so nobody ever cuts.)\n"
