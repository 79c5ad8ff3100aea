(** The distance oracle: a textbook queue BFS over persistent graphs.

    Every product distance goes through {!Nf_graph.Kernel}'s bitset
    sweeps; this module shares no code with them, and the kernel, the
    game oracles and the graph tests are checked against it. *)

module Graph := Nf_graph.Graph

val distances : Graph.t -> int -> int array
(** [distances g src] gives hop counts from [src]; unreachable vertices get
    [-1]. *)

val all_distances : Graph.t -> int array array
(** [all_distances g] is the matrix of hop distances, [-1] when
    unreachable. *)

val distance : Graph.t -> int -> int -> Nf_util.Ext_int.t
(** [distance g src dst] is the hop distance (it agrees with
    [(distances g src).(dst)]).
    @raise Invalid_argument when either vertex is out of range. *)

val distance_sum : Graph.t -> int -> Nf_util.Ext_int.t
(** [distance_sum g v] is [Σ_j d(v,j)] — the distance component of player
    [v]'s cost; [Inf] whenever some vertex is unreachable from [v]. *)

val eccentricity : Graph.t -> int -> Nf_util.Ext_int.t
(** Greatest distance from the vertex; [Inf] when [g] is disconnected. *)

val reachable : Graph.t -> int -> Nf_util.Bitset.t
(** The connected component of the vertex, as a one-word bitset.
    @raise Invalid_argument when the order exceeds 62 — the message names
    {!reachable_words}, the multi-word sibling. *)

val reachable_words : Graph.t -> int -> int array
(** The connected component of the vertex as a {!Nf_util.Bitset_w} row at
    offset 0 ([Bitset_w.words_for (order g)] words) — works at any order;
    for n ≤ 62 word 0 equals the {!reachable} bitset exactly. *)
