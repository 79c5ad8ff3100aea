(** The pair-move core shared by the pairwise games (BCG, transfers,
    weighted BCG, adversary, the distance-utility profiles).

    Definition 3 fixes one deviation rule for all of them: a missing link
    [(i, j)] is added when one endpoint strictly gains and the other
    weakly gains, and a link is cut when either endpoint strictly gains
    from cutting it.  A game differs from another only in how it
    {e prices} a toggled pair — each endpoint's exact threshold in [α] —
    so a game supplies one endpoint-wise {!pricing} function and this
    module writes the consent rule, the point certifier (the BCG's), the
    improving-move list and the stable-interval fold once for every
    game.  A pricing reads the endpoints' distance sums from its caller
    ({!sums}): how a sum is obtained — a sweep here, a cached row in
    the sampled walk — is the caller's decision, not the game's.

    Thresholds are exact fractions compared by integer
    cross-multiplication; see {!Frac}. *)

(** Exact threshold fractions [(num, den)] with [den > 0]; [num =
    Nf_graph.Kernel.inf] encodes [+∞] whatever the denominator.  The game
    modules [open] this to share one copy of the comparisons. *)
module Frac : sig
  type t = int * int

  val frac_lt : t -> t -> bool
  val frac_eq : t -> t -> bool
  val frac_min : t -> t -> t

  val frac_lt_alpha : Nf_util.Rat.t -> t -> bool
  (** [frac_lt_alpha alpha f] is [α < f]. *)

  val frac_le_alpha : Nf_util.Rat.t -> t -> bool
  (** [frac_le_alpha alpha f] is [α ≤ f]. *)

  val endpoint_of_frac : t -> Nf_util.Interval.endpoint
  val positive : Nf_util.Interval.t
  (** [(0, +∞)]: link costs are positive. *)
end

val ibenefit : base:int -> int -> int
(** [ibenefit ~base after] is a player's integer saving from an added
    link, its cost [base] before the addition and [after] it, with
    {!Nf_graph.Kernel.inf} for [+∞]: [+∞] when the link connects the
    player, [0] when it stays disconnected.  The integer thresholds of
    every distance-sum game use this convention. *)

val iloss : base:int -> int -> int
(** [iloss ~base after] is a player's integer loss from a severed link:
    [+∞] when the player is disconnected on either side (severing never
    strictly helps it then). *)

(** A single improving move.  [Add (i, j)] creates the link i–j
    (bilateral consent, or a joint contract under transfers);
    [Delete (i, j)] is player [i] unilaterally severing its link to [j]
    — the initiator matters for traces, so both [Delete (i, j)] and
    [Delete (j, i)] may be offered for one edge. *)
type move = Add of int * int | Delete of int * int

type sums = {
  before : int -> int;
      (** [before v]: [v]'s distance sum on the graph with the pair
          untoggled ({!Nf_graph.Kernel.inf} when [v] does not reach
          everything). *)
  after : int -> int;
      (** [after v]: [v]'s distance sum with the pair toggled. *)
}
(** The distance sums a pricing reads, supplied by its caller.  Both may
    be asked only for the endpoints [i] and [j] of the toggled pair, and
    only while the pair is toggled; neither allocates.  The callers here
    read [before] off one all-sources sweep, taken at the first read (a
    pricing that never reads it costs no sweep), and run [after] as a
    single-source sweep on the toggled workspace; the sampled walk
    ([Nf_dynamics.Mc_poa]) answers both from its cached distance rows,
    [after] for an addition without a sweep, and first prices a deletion
    on a lower bound of [after] (see {!pricing}). *)

type pricing = Nf_graph.Kernel.t -> sums -> int -> int -> int -> Frac.t
(** [price ws sums] prepares the game-specific state of the graph loaded
    in [ws] (the weights, the adversary's edge count and separation
    sums; never a distance sum) and returns [at].  [at i j v] (with
    [i < j] and [v] one of them) is called while the pair [(i, j)] is
    toggled in [ws] and returns endpoint [v]'s threshold: its benefit
    when the toggle added the edge ([Kernel.has_edge ws i j] now holds),
    its loss when the toggle removed it.  [at] must not leave the
    workspace changed.

    Calls come in passes: in each, [at i j i] is called first and
    [at i j j] at most once after it, before the pair is toggled back.
    {!improving_moves} prices both endpoints, and {!improves} and
    {!stable_interval} skip [j]'s call whenever [j] cannot change the
    verdict.  A caller may run more than one pass per toggle, each on
    its own sums (the sampled walk's floor pass, then its exact pass).
    So a pricing may carry work from [i]'s call to [j]'s within one pass
    (the transfers joint sum, the adversary's toggled-state separation
    sums), but no call may rely on an earlier call for [j] or on an
    earlier pass.

    A deletion threshold never decreases as [after] grows: with [before]
    and the other endpoint's sums fixed, raising [after v] for either
    endpoint never lowers [at i j i] or [at i j j] on a deletion.  So a
    pass on a lower bound of [after] gives a lower bound on each
    threshold, and a deletion that improves for no endpoint there
    improves for none on the exact sums.  Every registered pricing meets
    this: the BCG's loss [after − before] (also [coalition:k=2]'s), the
    weighted BCG's over [w_v], the transfers joint loss, and the
    adversary's loss, whose separation term does not read [after]. *)

val addition_blocks : Nf_util.Rat.t -> Frac.t -> Frac.t -> bool
(** The bilateral consent predicate: a missing link with benefits
    [(b_i, b_j)] is an improving addition at [α] when one endpoint strictly
    gains and the other weakly gains —
    [(α < b_i ∧ α ≤ b_j) ∨ (α < b_j ∧ α ≤ b_i)]. *)

val improves :
  Nf_util.Rat.t -> (int -> int -> int -> Frac.t) -> added:bool -> int -> int -> bool
(** [improves alpha at ~added i j], with the pair toggled and [added]
    telling whether the toggle added the edge: whether the toggle is an
    improving move at [alpha] — {!addition_blocks} for an addition, an
    endpoint with loss [< α] for a deletion.  [j] is priced only when
    [i]'s threshold leaves the verdict open. *)

val is_stable : pricing -> alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Definition 3 at an exact link cost: {!improves} holds for no pair;
    stops at the first improving move. *)

val improving_moves :
  pricing -> alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> move list
(** Every improving move at [alpha], in the order contract of the
    pairwise games' dynamics (a PRNG draws from this list, so the order
    is part of every trace): first the deletions, in reverse
    lexicographic edge order, with [Delete (j, i)] before [Delete (i, j)]
    within the edge [(i, j)], [i < j]; then the additions [Add (i, j)],
    also in reverse lexicographic order.  For the 5-cycle plus chord
    [(0, 2)] at [α = 3], BCG pricing gives
    [Delete (4, 3); Delete (3, 4); Delete (2, 3); …]. *)

val stable_interval :
  pricing ->
  Nf_graph.Kernel.t ->
  Nf_iso.Symmetry.t ->
  Nf_graph.Graph.t ->
  Nf_util.Interval.t
(** The exact stable region on a borrowed workspace (the graph is
    loaded here): [α_min] is the max over missing links of [min(t_i, t_j)]
    — the left end is closed exactly when every attaining pair ties,
    [t_i = t_j] — and [α_max] the min over edge endpoints of the loss,
    intersected with {!Frac.positive}.  One representative pair per orbit
    of the given automorphism subgroup is priced
    ({!Nf_iso.Symmetry.iter_pair_reps}), which is sound when the pricing
    is isomorphism-invariant; a pricing indexed by player identity must
    be given [Symmetry.trivial n].  [j] is priced only when it can still
    move the fold: not for an addition whose [t_i] is below the running
    [α_min], not for a deletion once [α_max ≤ 0], and not for a twin pair
    of the subgroup, whose [t_j] is [t_i]. *)
