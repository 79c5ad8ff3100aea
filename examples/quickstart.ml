(* Quickstart: the library in one sitting.

   Builds a few graphs, computes player and social costs in both games,
   asks the central question of the paper — which topologies are stable,
   and at what price — and prints the answers.

   Run with: dune exec examples/quickstart.exe *)

module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
open Netform

let section title =
  Printf.printf "\n--- %s ---\n" title

let () =
  section "1. Graphs";
  (* vertices are 0..n-1; edges are undirected and persistent *)
  let star = Nf_named.Families.star 6 in
  let cycle = Nf_named.Families.cycle 6 in
  let ad_hoc = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ] in
  List.iter
    (fun (name, g) -> Printf.printf "%-8s %s\n" name (Nf_graph.Pp.summary g))
    [ ("star", star); ("cycle", cycle); ("ad hoc", ad_hoc) ];

  section "2. Costs (eq. 1 and eq. 4)";
  let alpha = 2.0 in
  Printf.printf "alpha = %.1f\n" alpha;
  Printf.printf "star:  center pays %.1f, a leaf pays %.1f; social cost %.1f\n"
    (Cost.player_cost ~alpha star 0)
    (Cost.player_cost ~alpha star 1)
    (Cost.social_cost Cost.Bcg ~alpha star);
  Printf.printf "cycle: each player pays %.1f; social cost %.1f\n"
    (Cost.player_cost ~alpha cycle 0)
    (Cost.social_cost Cost.Bcg ~alpha cycle);

  section "3. Stability in the bilateral game (pairwise stability)";
  List.iter
    (fun (name, g) ->
      Printf.printf "%-8s stable link costs: %s\n" name
        (Nf_util.Interval.to_string (Bcg.stable_alpha_set g)))
    [ ("star", star); ("cycle", cycle); ("ad hoc", ad_hoc) ];

  section "4. Nash in the unilateral game";
  List.iter
    (fun (name, g) ->
      Printf.printf "%-8s Nash link costs: %s\n" name
        (Nf_util.Interval.Union.to_string (Ucg.nash_alpha_set g)))
    [ ("star", star); ("cycle", cycle) ];

  section "5. Price of anarchy";
  let a = Rat.of_int 2 in
  List.iter
    (fun (name, g) ->
      if Bcg.is_pairwise_stable ~alpha:a g then
        Printf.printf "%-8s is stable at alpha=2 with PoA %.3f\n" name
          (Poa.price_of_anarchy Cost.Bcg ~alpha:2.0 g)
      else Printf.printf "%-8s is not stable at alpha=2\n" name)
    [ ("star", star); ("cycle", cycle); ("ad hoc", ad_hoc) ];

  section "6. Dynamics: reaching a stable network";
  let rng = Nf_util.Prng.create 42 in
  let outcome =
    Nf_dynamics.Game_dynamics.run (Game.Any Game_registry.bcg) ~alpha:a ~rng
      (Nf_named.Families.path 6)
  in
  Printf.printf "improving path from P6: %d moves, converged=%b\nfinal: %s\n"
    outcome.Nf_dynamics.Game_dynamics.steps outcome.Nf_dynamics.Game_dynamics.converged
    (Graph.to_string outcome.Nf_dynamics.Game_dynamics.final)
