(** Pairwise stability with transfers — the extension the paper's
    conclusion announces ("how bilateral ... transfers between players may
    help mediate the price of anarchy").

    With side payments a link's fate depends on the {e joint} surplus of
    its two endpoints (Jackson–Wolinsky's transferable-utility variant):
    a missing link is added when the endpoints' combined distance saving
    strictly exceeds the combined price [2α], and an existing link
    survives when the combined severance loss covers it.  Thresholds are
    therefore half-integers, and each graph again has an exact stable
    interval — now closed at both ends. *)

val stable_alpha_set : Nf_graph.Graph.t -> Nf_util.Interval.t
(** The exact set of positive link costs at which the graph is pairwise
    stable with transfers. *)

val stable_alpha_set_sym_ws :
  Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** {!stable_alpha_set} against a caller-provided kernel workspace (the
    chunked-annotation path): {!Pairwise.stable_interval} fed {!price},
    which prices one representative pair per orbit of the given
    automorphism subgroup (joint benefits/losses are orbit-invariant).
    The result is the same for any subgroup of [Aut(g)];
    [Symmetry.trivial n] scans every pair.  {!stable_alpha_set} passes
    {!Game.sweep_symmetry}. *)

val price : Pairwise.pricing
(** Transfers as a {!Pairwise.pricing}: an addition is priced at the
    joint benefit over 2 for both endpoints, a deletion at the joint loss
    over 2 for [i] and [+∞] for [j].  Under the bilateral rule this is
    exactly the joint rule — add when the joint benefit exceeds [2α], cut
    when the joint loss falls below it, one [Delete (i, j)] ([i < j]) per
    such edge — severance is a joint decision under transfers, so the
    initiator is irrelevant.  [i]'s call reads both endpoints' sums and
    carries the joint sum to [j]'s call on the same toggle. *)
