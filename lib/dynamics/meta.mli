(** Jackson–Watts analysis of the improving-move digraph.

    For a fixed player count and link cost, every labeled graph is a node
    and every improving single-link move (the moves of
    [Netform.Bcg.improving_moves]) an arc.  Improving paths then either
    terminate at a pairwise stable graph or fall into a closed cycle; this
    module materializes the digraph for small [n] and answers which.

    Sizes: [2^(n(n-1)/2)] nodes, so [n ≤ 6] (32 768 nodes). *)

type analysis = {
  n : int;
  alpha : Nf_util.Rat.t;
  total : int;  (** labeled graphs considered *)
  stable : int;  (** pairwise stable graphs (fixed points) *)
  reaching_stable : int;  (** graphs from which some improving path ends
                              at a stable graph *)
  in_closed_cycle : int;  (** graphs lying on a closed improving cycle *)
}

val build_digraph : alpha:Nf_util.Rat.t -> int -> int list array
(** [build_digraph ~alpha n] has one slot per labeled graph on [n]
    vertices, indexed by its {!Nf_enum.Labeled} edge mask, holding the
    masks its improving moves lead to, in
    [Netform.Bcg.improving_moves]'s order.  No order check: [n ≤ 6]
    keeps it at 32 768 slots. *)

val analyze : alpha:Nf_util.Rat.t -> n:int -> analysis
(** Materialize the move digraph on all labeled graphs and classify.
    @raise Invalid_argument for [n < 2] or [n > 6]. *)

val reaches_stable : alpha:Nf_util.Rat.t -> Nf_graph.Graph.t -> bool
(** Whether some improving path from this graph ends at a pairwise stable
    graph (breadth-first over the move digraph; same size limits). *)

val no_closed_cycles : analysis -> bool
(** [true] when every graph can improve its way to stability — the
    Jackson–Watts "no closed improving cycles" property, which guarantees
    the stochastic dynamics of {!Game_dynamics.run} on the BCG converge. *)

val pp : Format.formatter -> analysis -> unit
