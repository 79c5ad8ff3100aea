(** Improving-path dynamics for any registered game with a pricing
    ({!Netform.Game.S.pricing}), behind [netform dynamics], experiment
    E15 and the improving-move digraphs of {!Meta} and {!Stochastic}.
    The large-n sampled walk is {!Mc_poa}'s pair-slot walk instead.

    A state is just a graph.  Each step draws one move uniformly from the
    game's improving-move list ({!Netform.Game.improving_moves}); fixed
    points are exactly the game's stable graphs.  For the BCG
    ([run (Game.Any Game_registry.bcg)]) a move either severs a link whose severer strictly gains, or adds a
    link that strictly helps one endpoint and weakly helps the other
    (Jackson–Watts improving paths).  The UCG has no single-link
    improving moves (a best response rewires a whole wish set); its
    dynamics live in {!Ucg_dynamics}, on top of the same {!iterate}
    driver. *)

type outcome = {
  final : Nf_graph.Graph.t;
  steps : int;
  converged : bool;  (** final graph is stable for the game *)
  trace : Netform.Pairwise.move list;  (** moves in execution order *)
}

val iterate : max_steps:int -> step:('a -> 'a option) -> 'a -> 'a * int * bool
(** [iterate ~max_steps ~step init] runs [step] to a fixed point
    ([None]) or the cap, returning [(final, steps_taken, converged)].
    The shared fixpoint driver under {!run} and
    {!Ucg_dynamics.run}'s round loop. *)

val apply : Nf_graph.Graph.t -> Netform.Pairwise.move -> Nf_graph.Graph.t
(** The graph after one move: [Add (i, j)] adds the link,
    [Delete (i, j)] removes it. *)

val step :
  Netform.Game.packed ->
  alpha:Nf_util.Rat.t ->
  rng:Nf_util.Prng.t ->
  Nf_graph.Graph.t ->
  (Netform.Pairwise.move * Nf_graph.Graph.t) option
(** Apply one uniformly chosen improving move; [None] at a stable graph.
    @raise Invalid_argument when the game has no move generator. *)

val run :
  Netform.Game.packed ->
  alpha:Nf_util.Rat.t ->
  rng:Nf_util.Prng.t ->
  ?max_steps:int ->
  Nf_graph.Graph.t ->
  outcome
(** Iterate until stable or [max_steps] (default 10 000). *)
