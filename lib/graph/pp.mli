(** Export formats: Graphviz DOT and a one-line summary. *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz source for the graph, vertices labeled [0 .. n-1]. *)

val summary : Graph.t -> string
(** One-line structural summary (order, size, degrees, diameter, girth,
    regularity/SRG classification) used by the CLI and examples. *)
