(** The socket-independent query engine behind the daemon, and the one
    read path of every in-process store query ([netform query],
    [store query], [store export], [sweep --store]).

    Wraps a mapped store ({!Mmap_reader}) with columnar read structures,
    all filled by the first CRC-checked {!Mmap_reader.iter} pass the
    service makes: a fixed-width graph6 slab by record ordinal, one
    region dictionary ({!Alpha_index}) per column the store carries,
    and the ordinals sorted by graph6 for [entry] lookups ({!stats}
    reports their [resident_bytes]).  Next to them sits
    the deterministic figure-sweep response cache keyed by
    [(game, n, α-grid)].  Equality with a fresh annotation is the
    contract: stable-at names exactly the classes
    {!Nf_analysis.Equilibria} finds stable, figures are the
    {!Nf_analysis.Figures} sweep, export is [Dataset.to_csv] of the
    annotated atlas.  All functions are safe to call concurrently from
    pool domains. *)

type t

val create : ?cache_chunks:int -> path:string -> unit -> t
(** Open a store file or shard directory for serving.
    @raise Nf_store.Layout.Corrupt / [Failure] as {!Mmap_reader.open_store}. *)

val store : t -> Mmap_reader.t
val n : t -> int
val game : t -> string
val length : t -> int

val default_game : t -> string
(** The game a query without an explicit [--game] means: ["bcg"] on a
    classic store, the store's own game on a single-game store. *)

val stable_ids : t -> game:string -> alpha:Nf_util.Rat.t -> int list
(** Ascending ids of the records whose stored region contains [alpha].
    @raise Invalid_argument ["store carries \"G\" annotations, not
    \"W\""] when the store does not carry the requested game's
    annotations (a classic store serves ["bcg"], and ["ucg"] when built
    with it; a single-game store serves exactly its own game). *)

val stable_slices : t -> game:string -> alpha:Nf_util.Rat.t -> Json.slices
(** The graph6 strings of {!stable_ids} as slices of the graph6 slab:
    no chunk decode, no per-graph allocation. *)

val stable_graphs : t -> game:string -> alpha:Nf_util.Rat.t -> Nf_graph.Graph.t list

val find_entry : t -> graph6:string -> (int * Nf_store.Layout.record) option
(** Exact-string lookup of a stored representative: a binary search
    over the ordinals sorted by their slab slice, then the record off
    the chunk cache. *)

val region_strings : t -> Nf_store.Layout.record -> (string * string) list
(** The [(label, exact region)] pairs a record renders as — one per
    column the store carries. *)

type figures =
  | Classic of Nf_analysis.Figures.point list
      (** a classic BCG+UCG store: the paper's Figure 2/3 pair *)
  | Single of Nf_analysis.Figures.game_point list
      (** any other store: its own game's curves *)

val figures : t -> ?grid:Nf_util.Rat.t list -> unit -> figures
(** The figure-sweep points over [grid] (default
    {!Nf_analysis.Sweep.paper_grid}), read from the stored regions via
    [Figures.sweep_via]/[sweep_game_via] — equal to a fresh
    [Figures.sweep]/[sweep_game].  Not cached. *)

val figure_csv : t -> ?grid:Nf_util.Rat.t list -> unit -> string
(** {!figures} rendered by [Figures.to_csv] or [Figures.game_csv],
    served from the response cache when the (game, n, grid) key was
    already swept. *)

val export_csv : t -> string
(** The store as the annotate CSV atlas: byte-identical to
    [Dataset.to_csv] over a fresh annotation of the same game. *)

val tick_request : t -> unit
(** Count a protocol request (called by the server per line). *)

type stats = {
  records : int;
  chunks : int;
  volumes : int;
  cached_chunks : int;
  indexed_games : (string * int) list;  (** (game, distinct finite endpoints) *)
  regions : (string * int) list;  (** (game, distinct regions) *)
  resident_bytes : int;  (** slab + id arrays + entry order; 0 before first use *)
  figure_cache_entries : int;
  figure_cache_hits : int;
  requests : int;
}

val stats : t -> stats
