(** The socket-independent query engine behind the daemon, and the one
    read path of every in-process store query ([netform query],
    [store query], [store export], [sweep --store]).

    Wraps a mapped store ({!Mmap_reader}) with columnar read structures,
    all filled by the first CRC-checked {!Mmap_reader.iter} pass the
    service makes: a fixed-width graph6 slab by record ordinal, one
    region dictionary ({!Alpha_index}) per column the store carries
    with each record's 4-byte region code in it, and the ordinals
    sorted by graph6 for [entry] lookups ({!stats} reports their
    [resident_bytes]), so neither [stable-at] nor [entry] decodes a
    chunk.  Next to them sits
    the deterministic figure-sweep response cache keyed by
    [(game, n, α-grid)].  {!source} hands the store to the figure and
    export code as an {!Nf_analysis.Source.t}, the value a fresh
    annotation is too: the figure CSV is {!Nf_analysis.Figures.figure}
    of it and the export {!Nf_analysis.Dataset.to_csv}, so both equal
    what a fresh source of the same content renders.  All functions are
    safe to call concurrently from pool domains. *)

type t

val create : path:string -> unit -> t
(** Open a store file or shard directory for serving.  The service
    never reads a record through the mapping's chunk cache, so the
    store's [cached_chunks] stays 0.
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

val find_entry : t -> graph6:string -> (int * Nf_store.Layout.record) option
(** Exact-string lookup of a stored representative: a binary search
    over the ordinals sorted by their slab slice, then the record
    rebuilt from the columns — [bcg] is the interval column's region
    ([Interval.empty] when the store carries none), [ucg] is [Some] of
    the union column's region iff the store carries one.  It equals
    {!Mmap_reader.record} of the ordinal; no chunk is decoded. *)

val region_strings : t -> Nf_store.Layout.record -> (string * string) list
(** The [(label, exact region)] pairs a record renders as — one per
    column the store carries. *)

val source : ?game:string -> t -> Nf_analysis.Source.t
(** The store as an annotated-class source: its fold is the
    CRC-checked {!Mmap_reader.iter} pass (graph6 decoded per record),
    its stable sets come off the region dictionaries and the graph6
    slab.  With [~game], the column check runs first, so a caller can
    refuse a game the store does not carry before printing anything.
    @raise Invalid_argument as {!stable_ids}. *)

val figure_csv : t -> ?grid:Nf_util.Rat.t list -> unit -> string
(** [Figures.csv (Figures.figure ?grid (source t))]: the store's own
    figure, the Figure 2/3 pair on a classic BCG+UCG store and its one
    game's curves otherwise.  Served from the response cache when the
    (game, n, grid) key was already swept. *)

val tick_request : t -> unit
(** Count a protocol request (called by the server per line). *)

type stats = {
  records : int;
  chunks : int;
  volumes : int;
  cached_chunks : int;  (** the mapping's chunk cache: 0, as no request fills it *)
  indexed_games : (string * int) list;  (** (game, distinct finite endpoints) *)
  regions : (string * int) list;  (** (game, distinct regions) *)
  resident_bytes : int;
      (** slab + id arrays + region codes (4 bytes per record per carried
          column) + entry order; 0 before first use *)
  figure_cache_entries : int;
  figure_cache_hits : int;
  requests : int;
}

val stats : t -> stats
