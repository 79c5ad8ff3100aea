(** Zero-allocation batched distance kernel, word-count-generic.

    A {!t} is a reusable per-domain workspace: mutable adjacency rows
    stored in a flat multi-word slab (62 bits per word, [Bitset_w]
    layout), preallocated distance-sum / eccentricity / reach / frontier
    scratch, a 16-bit distance-row slab grown on first use, and an
    edge-toggle primitive.  Loading a graph and running
    any number of single-source or all-sources distance-sum sweeps
    allocates nothing after the workspace exists — every intermediate
    value is an immediate [int], and infinity is represented as {!inf}
    ([max_int]) instead of boxed [Ext_int.t].

    For n ≤ 62 the slab is one word per vertex and every sum routine runs
    a copy of the historical single-word loops; beyond 62 the same
    frontier algebra runs as loops over [words] ints per row, still
    allocation-free.
    {!distances_from} has only the generic loop, at every order.

    {b Ownership rules}: a workspace is single-owner mutable state. Obtain
    one with {!with_ws} (or {!with_loaded}) which borrows the calling
    domain's resident workspace — one workspace per domain, never shared
    across domains, never stashed beyond the callback.  Re-entrant borrows
    are safe: the inner call gets a fresh scratch workspace. *)

module Bitset := Nf_util.Bitset

type t

val inf : int
(** Distance/sum value standing for infinity ([max_int]).  Arithmetic on it
    is the caller's responsibility: test against [inf] before adding. *)

val create : ?hint:int -> unit -> t
(** Fresh workspace with capacity for [hint] (default 16) vertices; grows
    on demand in {!load}/{!load_rows}/{!load_edges}. *)

val load : t -> Graph.t -> unit
(** Copy a graph's adjacency rows into the workspace (any order). *)

val load_rows : t -> int -> (int -> Bitset.t) -> unit
(** [load_rows ws n row] loads an [n]-vertex graph whose adjacency row for
    vertex [v] is the one-word bitset [row v]; rows are masked to
    [0..n-1] and self-loops stripped.  Lets callers build graphs (e.g.
    from directed strategy profiles) without constructing a persistent
    [Graph.t].
    @raise Invalid_argument when [n > 62] — one-word rows cannot name
    higher vertices; large graphs load through {!load_edges}. *)

val load_edges : t -> int -> ((int -> int -> unit) -> unit) -> unit
(** [load_edges ws n iter] loads an [n]-vertex graph from an edge
    iterator: [iter add] must call [add i j] for each undirected edge.
    Works at any order; self-loops are ignored, out-of-range vertices
    raise. *)

val order : t -> int

val words : t -> int
(** Slab words per adjacency row; [1] exactly when the one-word fast path
    is active. *)

val neighbors : t -> int -> Bitset.t
(** One-word neighbor row.
    @raise Invalid_argument when [words ws > 1] (order above 62). *)

val row_word : t -> int -> int -> int
(** [row_word ws v k] is word [k] of [v]'s adjacency row, [0 ≤ k <]
    {!words}[ ws] ([Bitset_w] layout: vertex [62k + b] is bit [b]). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply to each neighbor in ascending order; any order. *)

val degree : t -> int -> int
val has_edge : t -> int -> int -> bool

val toggle : t -> int -> int -> unit
(** Flip the presence of undirected edge [{i,j}] in place ([i <> j]). *)

val distance_sum_from : t -> int -> int
(** Sum of BFS distances from a source to all other vertices, or {!inf} if
    some vertex is unreachable.  Allocation-free. *)

val reach_stats : t -> int -> int * int
(** [reach_stats ws src] is [(finite_sum, reached)]: the sum of distances
    to the vertices reachable from [src] and how many vertices are
    reachable (including [src] itself).  Never {!inf}. *)

val row_inf : int
(** Distance-row entry standing for an unreachable vertex ([0xFFFF]).
    Every finite entry is below it, so [1 + d < e] needs no overflow
    guard. *)

val distance_rows : t -> Bytes.t
(** The workspace's distance-row slab for the loaded order [n]: [n × n]
    unsigned 16-bit native-endian entries, d(v, w) at byte
    [2·(v·n + w)] ([Bytes.get_uint16_ne]).  Written by {!distances_from}
    and by the caller; contents survive {!toggle} and every other kernel
    call.  Grown on first use after loading a larger order, so the slab
    is valid until the next load.
    @raise Invalid_argument when [n > row_inf]. *)

val distances_from : t -> int -> int
(** [distances_from ws src] writes BFS distances from [src] into row
    [src] of {!distance_rows} ({!row_inf} for unreachable vertices) and
    returns their sum, exactly {!distance_sum_from} ({!inf} when some
    vertex is unreachable).  Allocation-free once the slab exists. *)

val all_distance_sums : t -> int array
(** Bit-parallel all-sources sweep: every per-vertex frontier expands
    simultaneously each round, so the whole all-pairs pass costs
    O(diameter) rounds of O(n · words) word operations.  Returns the
    workspace's internal sums array ([sums.(v)] = distance sum from [v],
    {!inf} when [v] cannot reach every vertex) — valid until the next
    kernel call; copy it if it must survive.  Also refreshes
    {!eccentricities}. *)

val eccentricities : t -> int array
(** Per-vertex eccentricities computed by the latest {!all_distance_sums}
    ({!inf} for vertices that do not reach everything).  Same borrowing
    rule as the sums array. *)

val set_min_words_for_testing : int -> unit
(** Force subsequent loads to use at least this many words per row, so the
    differential test harness can pin the generic multi-word loops against
    the one-word fast path on the same n ≤ 62 inputs.  [1] restores
    normal dispatch.  Test-only: process-global, not for concurrent use
    with live workloads. *)

val with_ws : (t -> 'a) -> 'a
(** Borrow the calling domain's resident workspace.  The workspace is
    reused across calls on the same domain (this is what makes chunked
    annotation allocation-free); contents are unspecified on entry. *)

val with_loaded : Graph.t -> (t -> 'a) -> 'a
(** [with_loaded g f] = [with_ws] + {!load}[ g] before running [f]. *)
