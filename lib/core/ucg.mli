(** The unilateral connection game (Fabrikant et al.): Nash graphs and
    exact Nash regions in the link cost.

    In any UCG Nash profile each formed edge is bought by exactly one
    endpoint (double purchases admit an improving drop), so supporting
    strategy profiles are exactly edge orientations.  Whether player [i]
    accepts its owned edge set is independent of who owns the other edges,
    so a graph is a Nash graph iff some orientation makes every player
    accept.

    A player's acceptance constraints are linear in [α], so each
    [(player, owned set)] pair has an exact rational acceptance interval
    and each graph an exact Nash α-region (a finite union of rational
    intervals).

    One orientation walk ({!nash_alpha_set_sym_ws}) computes that region
    for every entry point; {!is_nash_graph} reads it.  The walk prunes by
    coverage: it keeps the union of the pieces emitted so far and cuts a
    subtree as soon as its running interval lies inside one range of that
    union.  Every leaf below a node emits a subset of the node's running
    interval, so the cut subtree could only re-emit covered points; and
    {!Nf_util.Interval.Union.of_list} merges touching ranges, so the
    canonical union depends on the point set alone.  The pruned result is
    therefore structurally identical to the exhaustive walk's (the test
    oracle, which does not prune).

    These computations are exponential in the worst case (all orientations
    of dense graphs); they are intended for the orders the empirical study
    enumerates (n ≤ 8).  Coverage pruning collapses the dense end, whose
    Nash sets are single intervals the first few leaves cover. *)

type owned = Nf_util.Bitset.t
(** The set of neighbors whose link player [i] pays for. *)

val best_response :
  alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> int -> owned:owned -> owned * Nf_util.Rat.t
(** [best_response ~alpha g i ~owned] is a cost-minimizing replacement
    wish set for player [i] (given the rest of the graph is kept by the
    other players), with its exact cost [α·k + Σd] — always finite, since
    buying every missing link connects [i] to everyone.  Candidate costs
    are compared by integer cross-multiplication, never through floats.
    Searches all [2^(candidates)] subsets. *)

val accepts : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> int -> owned:owned -> bool
(** Player [i] has no strictly improving unilateral deviation when it owns
    [owned] in [g], at a link cost [α > 0]: [α] lies in the player's
    acceptance interval, whose bounds lie in [(0, +∞]], so no [α ≤ 0] is
    accepted.  A player that does not reach every vertex never accepts
    (buying every missing link connects it). *)

val is_nash_orientation :
  alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> owner:(int -> int -> int) -> bool
(** Nash check for one explicit ownership assignment ([owner i j] must
    return [i] or [j] for each edge [i < j]). *)

val is_nash_graph : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Whether some orientation of [g] is a Nash equilibrium at link cost
    [α] (Definition 1 existentially over supporting profiles): membership
    of [α] in {!nash_alpha_set}. *)

val nash_alpha_set : Nf_graph.Graph.t -> Nf_util.Interval.Union.t
(** The exact set of positive link costs at which [g] is a Nash graph.
    Requires [g] connected; disconnected graphs return the empty union
    (no connected-to-[i] player tolerates unreachable vertices, and fully
    empty graphs admit the buy-everything improvement).  When the orbit
    quotient is enabled this auto-detects symmetry — the full group from
    {!Nf_iso.Canon.full} for searches with at least 10 edges, the twin
    scan below that — and prunes the orientation walk with it; the
    result is structurally identical either way. *)

val nash_alpha_set_sym_ws :
  Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.Union.t
(** {!nash_alpha_set} against a caller-provided kernel workspace — the
    allocation-light path used by chunked annotation, and the one walk
    behind every entry point of this module.  Acceptance intervals are
    accumulated as integer fraction bounds around in-place edge toggles
    and memoized in per-vertex integer tables (a vertex of degree [d]
    takes [2^d] slots while the tables fit a fixed budget of [2^20]
    slots; a vertex past it recomputes its bounds on each visit); the
    running intersection and the covered ranges are integer
    numerator/denominator/closedness registers, so neither the
    intersection nor the coverage test allocates.  A non-trivial
    subgroup also prunes owner-swap sibling branches with its live
    automorphisms (any subgroup of [Aut(g)] is sound — skipped subtrees
    emit exactly the pieces their σ-image keeps); [Symmetry.trivial n]
    has no elements, so that prune never fires.  The result is the same
    for any subgroup. *)
