(** The annotated classes at [n]: every connected isomorphism class on
    [n] vertices with its exact stable α-regions — the one object the
    paper's Figures 2/3 and per-class claims reduce.

    A source is either {e fresh}, annotated in this process through
    {!Nf_store.Build.iter_annotated} (the pooled, chunked,
    orbit-quotiented pipeline a store build writes with, so one
    annotator and one subgroup per graph cover every region of a
    record), or {e stored}, read back from an atlas store
    ([Nf_serve.Service.source]).  Either way its regions come in the
    store's record shape ({!Nf_store.Layout.record}) and its
    {!Nf_store.Layout.content} says which games it carries; consumers
    ({!Figures}, {!Dataset}, {!Experiments}, the CLI) take a source
    and never ask where it came from.

    A fresh annotation runs at most once per [(content, n)] in a
    process, on first use, and is kept until {!clear_cache}.  Every
    function may be called from any domain. *)

type t

type column = Col_interval | Col_union
(** The record field a game's region lives in: [bcg] or [ucg]. *)

val fresh : Nf_store.Layout.content -> int -> t
(** The classes on [n] vertices annotated for [content], computed when
    first folded or queried. *)

val of_game : string -> int -> t
(** [fresh (Build.content_of_game name) n]: a registered game's atlas
    ([bcg]/[ucg] give the classic layouts).
    @raise Invalid_argument on an unknown game. *)

val classic : int -> t
(** The classic BCG+UCG atlas: the paper's Figure 2/3 pair. *)

val stored :
  n:int ->
  content:Nf_store.Layout.content ->
  iter:((Nf_graph.Graph.t -> Nf_store.Layout.record -> unit) -> unit) ->
  stable:(column -> Nf_util.Rat.t -> Nf_graph.Graph.t list) ->
  t
(** A source over an existing atlas: [iter] visits every class in
    stream order, [stable col alpha] lists the classes whose [col]
    region contains [alpha], in the same order. *)

val n : t -> int
val content : t -> Nf_store.Layout.content

val game : t -> string
(** The registry name of the content ([ucg] for a classic BCG+UCG
    atlas, [bcg] for a classic one without UCG). *)

val carried : Nf_store.Layout.content -> (string * column) list
(** The [(game, column)] pairs a content carries, in column order. *)

val default_game : Nf_store.Layout.content -> string
(** The game a query without an explicit game means: ["bcg"] on a
    classic atlas, the atlas's own game otherwise. *)

val column : Nf_store.Layout.content -> game:string -> column
(** The column that answers [game] (matched by canonical name).
    @raise Invalid_argument ["store carries \"G\" annotations, not
    \"W\""] when the content does not carry it. *)

val carries : t -> game:string -> bool

val iter : t -> (Nf_graph.Graph.t -> Nf_store.Layout.record -> unit) -> unit

val fold : t -> ('a -> Nf_graph.Graph.t -> Nf_store.Layout.record -> 'a) -> 'a -> 'a
(** Every class with its record, in enumeration (= store) order. *)

val stable : t -> game:string -> alpha:Nf_util.Rat.t -> Nf_graph.Graph.t list
(** The classes whose [game] region contains [alpha], in enumeration
    order.  @raise Invalid_argument as {!column}. *)

val clear_cache : unit -> unit
(** Drop every memoized fresh annotation: the next use of a fresh
    source recomputes it. *)
