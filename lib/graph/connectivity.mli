(** Connectivity structure: components, bridges and separation counts.

    Bridges matter to the games directly: severing a bridge disconnects the
    graph and makes the severing player's distance cost infinite, so a
    bridge is never severed in a pairwise-stable graph — its [α_max]
    contribution is [+∞].  The adversary game goes further and {e prices}
    bridges: {!separation_sums} counts, per player, how many others a
    uniformly random single-edge failure would cut off. *)

val is_connected : Graph.t -> bool
(** One kernel distance sweep from vertex 0.  The empty graph (0
    vertices) counts as connected.  Works at any order. *)

val components : Graph.t -> Nf_util.Bitset.t list
(** Connected components as one-word vertex bitsets, ordered by least
    vertex.  @raise Invalid_argument when the order exceeds 62 — the
    message names {!component_labels}, the multi-word sibling. *)

val component_labels : Graph.t -> int array
(** [component_labels g] maps each vertex to the least vertex of its
    component — the word-generic component decomposition, usable at any
    order.  For n ≤ 62 the distinct labels enumerate {!components} in the
    same order. *)

val component_count : Graph.t -> int
(** Number of connected components, at any order. *)

val is_bridge : Graph.t -> int -> int -> bool
(** [is_bridge g i j] — removing existing edge [(i,j)] would put [i] and
    [j] in different components: [i] reaches fewer vertices once the edge
    is toggled off in a kernel workspace.  Works at any order.
    @raise Invalid_argument when [(i,j)] is not an edge. *)

val bridges : Graph.t -> (int * int) list
(** All bridges as [i < j] pairs in lexicographic order, found by one
    lowpoint DFS over the whole graph — O(n + m) at any order, agreeing
    edge-for-edge with filtering {!Graph.edges} through {!is_bridge}
    (pinned by the QCheck differential in [test/test_graph.ml]). *)

val bridges_via :
  n:int -> iter_neighbors:(int -> (int -> unit) -> unit) -> (int * int) list
(** {!bridges} over generic adjacency, so kernel workspaces
    ([Nf_graph.Kernel.iter_neighbors ws]) can be scanned without building
    a persistent graph. *)

val separation_sums :
  n:int -> iter_neighbors:(int -> (int -> unit) -> unit) -> int array
(** [sep.(v)] = Σ over bridges [b] in [v]'s component of the number of
    vertices separated from [v] when [b] fails (the size of [b]'s far
    side from [v]); edges in other components and non-bridges contribute
    nothing.  One O(n + m) lowpoint DFS computes every vertex's sum —
    the adversary game's expected-disconnection numerator
    ([E[separated] = sep.(v) / m] under a uniformly random single-edge
    attack). *)

val separation_sums_graph : Graph.t -> int array
(** {!separation_sums} over a persistent graph's adjacency. *)

val separation_total : Graph.t -> int
(** Σ_v [sep.(v)] = Σ over bridges of [2·s·(C−s)] — the social
    separation term of the adversary cost model. *)

val is_cut_vertex : Graph.t -> int -> bool
(** Removing the vertex increases the number of components among the
    remaining vertices.  Works at any order. *)
