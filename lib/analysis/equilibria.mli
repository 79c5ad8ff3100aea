(** The classic per-game annotation lists, read off fresh {!Source}s:
    the entry points the benchmark workers time. *)

val bcg_annotated : int -> (Nf_graph.Graph.t * Nf_util.Interval.t) list
(** Every connected class on [n] vertices with its pairwise-stable
    α-set, in enumeration order (a fresh classic source without UCG). *)

val ucg_annotated : int -> (Nf_graph.Graph.t * Nf_util.Interval.Union.t) list
(** Every connected class with its Nash α-set (the fresh classic
    BCG+UCG source, shared with {!Figures.sweep}). *)

val clear_cache : unit -> unit
(** {!Source.clear_cache}: the next fresh source recomputes. *)
