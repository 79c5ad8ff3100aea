(** The bilateral connection game: pairwise stability (Definition 3),
    pairwise Nash (Definition 2), and exact stability regions in the link
    cost (Lemma 2).

    All thresholds are integer differences of hop-count sums, so the set of
    link costs for which a graph is pairwise stable is computed exactly.

    Infinite distances follow the literal cost semantics of eq. (1): a
    player whose distance cost is already infinite is indifferent to
    changes that keep it infinite (["∞ < ∞"] is false, ["∞ ≥ ∞"] is true).
    Consequently a graph with three or more components is vacuously
    pairwise stable — the paper, and the experiment harness, restrict
    attention to connected graphs. *)

val addition_benefit : Nf_graph.Graph.t -> int -> int -> Nf_util.Ext_int.t
(** [addition_benefit g i j] is player [i]'s distance-cost decrease from
    adding missing edge [(i,j)]: [Σd(i,·)(G) − Σd(i,·)(G+ij)].  [Inf] when
    the edge newly connects [i] to everything it could not reach; [Fin 0]
    when [i]'s cost is infinite either way.
    @raise Invalid_argument when [(i,j)] is already an edge. *)

val severance_loss : Nf_graph.Graph.t -> int -> int -> Nf_util.Ext_int.t
(** [severance_loss g i j] is player [i]'s distance-cost increase from
    severing existing edge [(i,j)]; [Inf] when the edge is a bridge (or
    [i]'s cost is already infinite — severing can never strictly help
    then).
    @raise Invalid_argument when [(i,j)] is not an edge. *)

val stability_interval : Nf_graph.Graph.t -> Nf_util.Interval.t
(** The paper's characterization [(α_min, α_max]] (Lemma 2:
    [α_min = max] over missing links of the less-interested endpoint's
    benefit, [α_max = min] over edge endpoints of {!severance_loss}),
    intersected with [α > 0]: {!stable_alpha_set} with its lower end
    opened. *)

val stable_alpha_set : Nf_graph.Graph.t -> Nf_util.Interval.t
(** The exact set of positive link costs at which the graph is pairwise
    stable.  Equals {!stability_interval} except that the left end is
    closed when every missing edge attaining [α_min] has equal benefits at
    both endpoints (the revised Definition 3 is strict on one side
    only). *)

val stable_alpha_set_sym_ws :
  Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** {!stable_alpha_set} against a caller-provided kernel workspace — the
    path used by chunked annotation, where one workspace per domain is
    reused across every graph in a chunk: {!Pairwise.stable_interval}
    fed {!price}, which prices one representative pair per orbit of the
    given automorphism subgroup (the per-pair benefit/loss multisets are
    orbit-invariant).  The result is the same for any subgroup of
    [Aut(g)]; [Symmetry.trivial n] scans every pair.
    {!stable_alpha_set} passes {!Game.sweep_symmetry}. *)

val price : Pairwise.pricing
(** The BCG's {!Pairwise.pricing}: the endpoint's distance-sum decrease
    (addition) or increase (deletion) at the toggled pair, over 1, with
    the infinity conventions of {!Pairwise.ibenefit} and
    {!Pairwise.iloss} (those of {!addition_benefit} and
    {!severance_loss}); no per-graph state. *)

val is_pairwise_stable : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Literal Definition 3 at an exact link cost ({!Pairwise.is_stable}). *)

val is_pairwise_nash : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Definition 2 computed structurally: no improving multi-link severance
    (checked over all subsets of each player's incident edges — [2^deg]
    per player) and {!is_pairwise_stable}.  By Proposition 1 this agrees
    with {!is_pairwise_stable}; the test suite asserts it. *)

val improving_moves : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> Pairwise.move list
(** All improving moves at [alpha], in {!Pairwise.improving_moves}'s
    order contract, so PRNG draws in the dynamics are reproducible.
    The BCG's improving-path dynamics ([Nf_dynamics.Game_dynamics.run])
    draw from this list. *)
