(** All-pairs distance metrics, each read off one kernel sweep. *)

val distance_sums : Graph.t -> Nf_util.Ext_int.t array
(** [distance_sums g] is [Σ_j d(v,j)] for every vertex [v] ([Inf] when
    [v] does not reach every vertex), computed by one bit-parallel
    all-sources kernel sweep ({!Kernel.all_distance_sums}) instead of [n]
    independent BFS runs.  The stability kernels compute
    this once per graph and reuse it as the base cost of every endpoint. *)

val diameter : Graph.t -> Nf_util.Ext_int.t
(** Greatest finite distance, or [Inf] when disconnected.  The diameter of
    the one-vertex graph is 0. *)

val radius : Graph.t -> Nf_util.Ext_int.t

val wiener : Graph.t -> Nf_util.Ext_int.t
(** Sum of [d(i,j)] over ordered pairs [(i,j)], [i ≠ j] — exactly the
    distance term of the social cost (4).  [Inf] when disconnected. *)

val average_distance : Graph.t -> float
(** {!wiener} divided by the number of ordered pairs; [infinity] when
    disconnected, [nan] for graphs with fewer than two vertices. *)
