(** Structural predicates and invariants used to classify equilibrium
    topologies. *)

val degree_sequence : Graph.t -> int list
(** Non-increasing. *)

val min_degree : Graph.t -> int
val max_degree : Graph.t -> int

val regularity : Graph.t -> int option
(** [Some k] when every vertex has degree [k]. *)

val is_tree : Graph.t -> bool
(** Connected and acyclic. *)

val is_forest : Graph.t -> bool
val is_star : Graph.t -> bool
(** One center adjacent to all others, no other edges ([n ≥ 2]; [K_2]
    counts). *)

val is_cycle : Graph.t -> bool
(** Connected and 2-regular ([n ≥ 3]). *)

val is_path : Graph.t -> bool
(** A tree with exactly two leaves, or a single vertex/edge. *)

val is_bipartite : Graph.t -> bool

val common_neighbors : Graph.t -> int -> int -> int
(** Number of shared neighbors of two distinct vertices. *)

val strongly_regular_params : Graph.t -> (int * int * int * int) option
(** [Some (n, k, lambda, mu)] when the graph is strongly regular: k-regular,
    every adjacent pair has exactly [lambda] common neighbors and every
    non-adjacent pair exactly [mu].  Complete and empty graphs are excluded
    (the conventional non-degeneracy requirement). *)

val is_strongly_regular : Graph.t -> bool

val has_diameter_at_most : Graph.t -> int -> bool
