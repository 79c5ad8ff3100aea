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

val joint_addition_benefit : Nf_graph.Graph.t -> int -> int -> Nf_util.Ext_int.t
(** Combined distance saving of both endpoints from adding a missing
    link. *)

val joint_severance_loss : Nf_graph.Graph.t -> int -> int -> Nf_util.Ext_int.t
(** Combined distance increase of both endpoints from severing an
    existing link. *)

val stable_alpha_set : Nf_graph.Graph.t -> Nf_util.Interval.t
(** The exact set of positive link costs at which the graph is pairwise
    stable with transfers. *)

val stable_alpha_set_sym_ws :
  Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** {!stable_alpha_set} against a caller-provided kernel workspace (the
    chunked-annotation path), toggling one representative pair per orbit
    of the given automorphism subgroup
    ({!Nf_iso.Symmetry.iter_pair_reps}; joint benefits/losses are
    orbit-invariant).  The result is the same for any subgroup of
    [Aut(g)]; [Symmetry.trivial n] scans every pair.
    {!stable_alpha_set} passes {!Game.sweep_symmetry}. *)

val stable_alpha_set_reference : Nf_graph.Graph.t -> Nf_util.Interval.t
(** Retained persistent-path implementation; structurally identical output
    to {!stable_alpha_set}, compared against it by the differential
    tests. *)

val is_stable : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Direct definition at an exact link cost; agrees with membership in
    {!stable_alpha_set} (property-tested). *)

val improving_moves : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> Game.move list
(** Joint improving moves at [alpha]: additions with joint benefit
    [> 2α] in lexicographic [(i, j)] order, then one [Delete (i, j)]
    ([i < j]) per edge whose joint loss is [< 2α] — severance is a joint
    decision under transfers, so the initiator is irrelevant. *)
