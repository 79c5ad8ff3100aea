(** Mmap-backed store reader: the one read path of every store query.

    The chunk directory of an NFATLAS1 file is the frames of one
    {!Nf_store.Reader.walk} in [Frames] mode, which reads only the
    header and the 16-byte chunk headers; the file is then mapped
    read-only ([Unix.map_file]).  Any record is then two binary
    searches plus one lazy, CRC-checked chunk decode; the only store
    bytes this module keeps on the heap are the decoded chunks in a
    small bounded FIFO cache ([Service] adds a graph6 slab, region
    dictionaries and region codes, filled by one {!iter} pass, and
    never reads through the cache).  A directory of shard
    volumes is served transparently: each
    volume gets its own mapping and record ordinals run across volumes
    in shard order, so the directory reads as the store its merge would
    produce.

    Chunk bodies are {e not} CRC-verified at open time — a damaged chunk
    raises {!Nf_store.Layout.Corrupt} on first access, pinned to the
    chunk, while the rest of the store keeps serving.  The framing walk
    and the footer totals are validated at open.

    All read paths are safe for concurrent use from multiple domains:
    the mapping is immutable, bytes are copied out per frame (never
    aliased), and the cache is mutex-guarded. *)

type t

val open_store : ?cache_chunks:int -> path:string -> unit -> t
(** Map a store file, or every volume of a shard directory.
    [cache_chunks] bounds the decoded-chunk cache (default 64 chunks;
    [0] disables caching entirely).
    @raise Nf_store.Layout.Corrupt with the walk's reason after
    ["PATH: "]: framing damage or footer totals that disagree with the
    walk are ["PATH: chunk I (frame at byte B): …"], and a file that
    ends before its footer (a cut mid-chunk, at a chunk boundary or
    mid-footer) is the one message ["PATH: incomplete store (R records
    in C complete chunks; resume the build)"].
    @raise Failure when a directory does not hold one complete shard
    family. *)

val path : t -> string
val header : t -> Nf_store.Layout.header
(** The store header; for a shard directory, the merged view (shard
    metadata cleared), exactly the header its merge writes.  A single
    shard volume opened alone keeps its shard metadata. *)

val n : t -> int
val content : t -> Nf_store.Layout.content
val game : t -> string
val length : t -> int
(** Total records across all volumes. *)

val chunks : t -> int
val volumes : t -> string list
(** The mapped volume paths, in shard order (a single file for a plain
    store). *)

val record : t -> int -> Nf_store.Layout.record
(** [record t i] is record ordinal [i] in enumeration order.
    @raise Invalid_argument out of bounds.
    @raise Nf_store.Layout.Corrupt when the holding chunk fails its CRC. *)

val graph6 : t -> int -> string

val iter : t -> (int -> Nf_store.Layout.record -> unit) -> unit
(** In-order streaming pass decoding (and CRC-checking) each chunk
    exactly once; bypasses (and does not pollute) the chunk cache. *)

val cached_chunks : t -> int
(** Decoded chunks currently cached (always [<= cache_chunks]). *)

val close : t -> unit
(** Drop the decoded-chunk cache.  The mappings themselves are reclaimed
    by the GC when [t] is collected. *)
