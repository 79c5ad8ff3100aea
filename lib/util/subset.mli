(** Enumeration of subsets and combinations of a ground bitset.

    Best-response search in the unilateral game minimizes over all subsets
    of candidate link targets; equilibrium certification enumerates subsets
    of a vertex's incident edges.  Both iterate via this module. *)

val iter_subsets : Bitset.t -> (Bitset.t -> unit) -> unit
(** [iter_subsets ground f] applies [f] to all [2^|ground|] subsets of
    [ground], including the empty set and [ground] itself. *)

val exists_subset : Bitset.t -> (Bitset.t -> bool) -> bool
(** Short-circuiting existential over subsets. *)

val iter_subsets_of_size : Bitset.t -> int -> (Bitset.t -> unit) -> unit
(** [iter_subsets_of_size ground k f] applies [f] to every size-[k] subset. *)

val count_subsets : Bitset.t -> int
(** [2^|ground|].
    @raise Invalid_argument when the cardinal is ≥ [Sys.int_size - 1]
    (the shift would overflow the native int). *)

val iter_pairs : int -> (int -> int -> unit) -> unit
(** [iter_pairs n f] applies [f i j] to every pair [0 <= i < j < n]. *)
