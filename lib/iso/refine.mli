(** Equitable-partition refinement (1-dimensional Weisfeiler–Leman).

    An ordered partition of the vertex set is repeatedly split by neighbor
    counts against every cell until stable.  This is the workhorse inside
    canonical labeling: it shrinks the individualization search tree to the
    automorphism structure of the graph. *)

type partition = int list list
(** Ordered list of non-empty cells; cells jointly cover [0 .. n-1]. *)

val unit_partition : int -> partition
(** The single-cell partition of [0 .. n-1] (empty for [n = 0]). *)

val degree_partition : Nf_graph.Graph.t -> partition
(** Vertices grouped by degree, larger degrees first, each cell in
    ascending vertex order — a cheap invariant that seeds refinement. *)

val refine : Nf_graph.Graph.t -> partition -> partition
(** Coarsest equitable refinement of the given ordered partition.

    Ordering contract (store bytes at n >= 8 depend on it, through the
    representatives canonical augmentation picks): each round snapshots
    one splitter per current cell and applies the splitters in order to the
    evolving partition, repeating rounds until one splits nothing.  A
    splitter replaces every cell of size >= 2, in place, by its groups of
    equal neighbour count inside the splitter: groups by decreasing count,
    each group in ascending vertex order.  The result therefore depends
    only on the graph and the input cell order, never on the order inside
    input cells.

    @raise Invalid_argument if the graph has more than
    {!Nf_util.Bitset.max_size} vertices. *)

val is_discrete : partition -> bool
(** Every cell is a singleton. *)

val first_non_singleton : partition -> int list option
(** The target cell for individualization, if any. *)

val individualize : partition -> cell:int list -> int -> partition
(** [individualize p ~cell v] splits [cell] (which must occur in [p] and
    contain [v]) into [[v]] followed by the rest, preserving the order of
    the other cells. *)
