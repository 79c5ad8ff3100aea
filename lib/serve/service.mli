(** The socket-independent query engine behind the daemon.

    Wraps a mapped store ({!Mmap_reader}) with lazily built read
    structures — per-game {!Alpha_index}es, a graph6 column by record
    ordinal (filled once, by the first CRC-checked {!Mmap_reader.iter}
    pass the service makes) with an entry table derived from it, and
    the deterministic figure-sweep response cache keyed by
    [(game, n, α-grid)].  Parity with the in-process [Nf_store.Query]
    API is the contract: every answer is byte-identical to what the
    corresponding [Query] call produces on the same store.  All
    functions are safe to call concurrently from pool domains. *)

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
(** Ascending record ids, identical to [Query.game_entries].
    @raise Invalid_argument with [Query.game_entries]' own message when
    the store does not carry the requested game's annotations. *)

val stable_graph6 : t -> game:string -> alpha:Nf_util.Rat.t -> string list
(** The graph6 strings of {!stable_ids}, read from the graph6 column
    without a chunk decode. *)

val stable_graphs : t -> game:string -> alpha:Nf_util.Rat.t -> Nf_graph.Graph.t list

val find_entry : t -> graph6:string -> (int * Nf_store.Layout.record) option
(** Exact-string lookup of a stored representative: a binary search
    over the column's ordinals sorted by graph6, then the record off
    the chunk cache. *)

val region_strings : t -> Nf_store.Layout.record -> (string * string) list
(** The [(label, exact region)] pairs a record renders as — one per
    column the store carries. *)

val region_strings_of :
  content:Nf_store.Layout.content -> Nf_store.Layout.record -> (string * string) list
(** {!region_strings} as a pure function of the content descriptor, for
    in-process callers that render the same lines without a service. *)

val figure_csv : t -> ?grid:Nf_util.Rat.t list -> unit -> string
(** The figure-sweep CSV (classic dual stores: [Figures.to_csv]; game
    stores: [Figures.game_csv]), byte-identical to
    [store query --figures --csv] on the same store, served from the
    response cache when the (game, n, grid) key was already swept. *)

val export_csv : t -> string
(** Byte-identical to [Query.to_csv] / [store export]. *)

val tick_request : t -> unit
(** Count a protocol request (called by the server per line). *)

type stats = {
  records : int;
  chunks : int;
  volumes : int;
  cached_chunks : int;
  indexed_games : (string * int) list;  (** (game, distinct endpoints) *)
  figure_cache_entries : int;
  figure_cache_hits : int;
  requests : int;
}

val stats : t -> stats
