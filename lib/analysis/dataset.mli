(** The atlas CSV: every annotated class of a {!Source} as one line of
    graph6 and exact regions, so downstream users can consume the
    equilibrium atlas without OCaml.  A fresh source and a store of the
    same content render to the same bytes. *)

(** One row of a classic atlas CSV, as {!of_csv} parses it. *)
type entry = {
  graph : Nf_graph.Graph.t;
  bcg_stable : Nf_util.Interval.t;
  ucg_nash : Nf_util.Interval.Union.t option;
      (** [None] when the UCG annotation was skipped (large [n]) *)
}

val to_csv : Source.t -> string
(** Header + one line per class, in the source's order.  The header and
    region syntax follow {!Source.content}: a classic atlas writes
    [graph6,n,m,bcg_stable,ucg_nash] (UCG [-] when not carried), a
    single-game atlas [graph6,n,m,G_stable] with [G] its registry name.
    Regions are in {!interval_to_string} syntax, a union's pieces
    joined by [|]. *)

val of_csv : string -> entry list
(** Inverse of {!to_csv} on a classic atlas.
    @raise Invalid_argument on malformed input or another header. *)

val save : path:string -> Source.t -> unit
val load : path:string -> entry list

val interval_to_string : Nf_util.Interval.t -> string
(** Serialization syntax for one interval: [empty], or
    [lo_bracket lo ";" hi hi_bracket] with [inf] endpoints, e.g.
    ["[1;5]"], ["(0;1]"], ["[1;inf)"]. *)

val interval_of_string : string -> Nf_util.Interval.t
