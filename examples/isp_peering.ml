(* ISP peering: the paper's motivating scenario for bilateral consent.

   Autonomous systems peer only by mutual agreement (a BGP session needs
   configuration at both ends), and both sides carry the interconnect
   cost — exactly the bilateral connection game.  This example models a
   small internet exchange of n ISPs:

   1. each ISP wants low hop-count to every other network (the distance
      term) but ports/cross-connects cost money (the α term);
   2. peering agreements form and dissolve along improving paths;
   3. we watch how the resulting topology — and the welfare lost to
      selfishness — changes as interconnect prices rise.

   Run with: dune exec examples/isp_peering.exe *)

module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Prng = Nf_util.Prng
module Dyn = Nf_dynamics.Game_dynamics
open Netform

let n = 9

let describe g =
  Printf.sprintf "%d peering links, diameter %s, max degree %d"
    (Graph.size g)
    (Nf_util.Ext_int.to_string (Nf_graph.Apsp.diameter g))
    (Nf_graph.Props.max_degree g)

let () =
  Printf.printf "An internet exchange with %d ISPs\n" n;
  Printf.printf "=================================\n\n";
  Printf.printf
    "Interconnect price sweep: from free cross-connects to premium ports.\n\
     Each row: improving-path dynamics from a sparse random topology until\n\
     no ISP wants to add or drop a peering session.\n\n";
  let rng = Prng.create 2005 in
  let table =
    Nf_util.Table.create
      [ "price (alpha)"; "moves"; "stable topology"; "social cost"; "PoA" ]
  in
  List.iter
    (fun (num, den) ->
      let alpha = Rat.make num den in
      let alpha_f = Rat.to_float alpha in
      let seed_topology = Nf_graph.Random_graph.connected_gnp rng n 0.25 in
      let outcome = Dyn.run (Game.Any Game_registry.bcg) ~alpha ~rng seed_topology in
      let g = outcome.Dyn.final in
      Nf_util.Table.add_row table
        [
          Rat.to_string alpha;
          string_of_int outcome.Dyn.steps;
          describe g;
          Printf.sprintf "%.1f" (Cost.social_cost Cost.Bcg ~alpha:alpha_f g);
          Printf.sprintf "%.4f" (Poa.price_of_anarchy Cost.Bcg ~alpha:alpha_f g);
        ])
    [ (1, 2); (1, 1); (2, 1); (4, 1); (8, 1); (16, 1); (32, 1) ];
  Nf_util.Table.print table;

  Printf.printf
    "\nReading the table: cheap ports produce a full mesh (everyone peers with\n\
     everyone, socially optimal); as prices rise the exchange thins out into\n\
     sparse hub-like topologies, and a welfare gap opens and persists — the\n\
     price of selfish peering.\n\n";

  (* compare the same market under a unilateral rule: an ISP can buy
     transit to anyone without consent (the UCG) *)
  Printf.printf "Same market, unilateral transit purchases instead of consented peering:\n";
  let alpha = Rat.of_int 4 in
  let outcome = Nf_dynamics.Ucg_dynamics.run_random ~alpha ~rng (Nf_dynamics.Ucg_dynamics.empty n) in
  let g = outcome.Nf_dynamics.Ucg_dynamics.final.Nf_dynamics.Ucg_dynamics.graph in
  Printf.printf "  alpha=4: best-response rounds=%d, %s\n"
    outcome.Nf_dynamics.Ucg_dynamics.rounds (describe g);
  Printf.printf "  PoA %.4f (a single buyer per link coordinates better at high prices)\n"
    (Poa.price_of_anarchy Cost.Ucg ~alpha:4.0 g);

  (* how much worse can consented peering get? exhaustive worst case *)
  Printf.printf "\nWorst stable exchange over ALL topologies (n=6, exhaustive):\n";
  List.iter
    (fun (num, den) ->
      let alpha = Rat.make num den in
      let stable = Nf_analysis.Source.(stable (of_game "bcg" 6)) ~game:"bcg" ~alpha in
      let summary = Poa.summarize Cost.Bcg ~alpha:(Rat.to_float alpha) stable in
      Printf.printf "  alpha=%-4s equilibria=%-3d worst PoA=%.4f avg PoA=%.4f\n"
        (Rat.to_string alpha) summary.Poa.count summary.Poa.worst summary.Poa.average)
    [ (1, 2); (2, 1); (4, 1); (8, 1) ]
