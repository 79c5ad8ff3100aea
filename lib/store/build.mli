(** Building (and crash-resuming) equilibrium-atlas stores.

    A build streams every connected isomorphism class on [n] vertices
    out of {!Nf_enum.Unlabeled.iter_connected_chunked}, annotates each
    chunk across the {!Nf_util.Pool} domains, and appends it through
    {!Writer}.  The default is the classic dual-region layout (exact BCG
    stable interval and, when [with_ucg], the UCG Nash α-set); passing
    [~game] instead builds a single-game store for any registered
    {!Netform.Game} — records then carry that game's region and the
    header carries its schema tag ([bcg]/[ucg] map back onto the classic
    layouts byte-identically).  Progress/throughput/ETA lines are
    emitted per chunk through the [report] callback via
    {!Nf_util.Stats.Progress}.

    {b Crash-resume parity.}  Chunk boundaries are fixed by the chunk
    size recorded in the header and both the enumeration order and the
    annotation are deterministic, so [resume] — which truncates the part
    file to its longest valid chunk prefix and re-enters the stream at
    the next chunk (reconstructing the annotator from the header's
    content tag alone) — produces a store byte-identical to an
    uninterrupted build, whatever the pool width and wherever the
    interruption fell. *)

type outcome = {
  path : string;
  n : int;
  game : string;  (** registry name of the annotating game *)
  with_ucg : bool;  (** classic layout with the UCG payload *)
  shard : (int * int) option;  (** shard volume [i/k], [None] when whole *)
  chunks : int;
  records : int;  (** total annotated classes in the finished store *)
  resumed_records : int;  (** of which were inherited from a part file *)
  seconds : float;  (** wall-clock time of this run *)
}

val build :
  ?game:string ->
  ?with_ucg:bool ->
  ?shard:int * int ->
  ?chunk:int ->
  ?force:bool ->
  ?report:(string -> unit) ->
  path:string ->
  n:int ->
  unit ->
  outcome
(** Build a fresh store at [path].  Without [~game], a classic store
    whose [with_ucg] defaults to [n <= 7]; with [~game], a store for
    that registered game ([with_ucg] must then be omitted) — the
    {!content} both select.  [chunk] is the
    records-per-chunk fan-out unit (default 512).  Any stale part file
    is discarded.

    [~shard:(i, k)] builds shard volume [i] of a [k]-way split of the
    same parameters ({!Nf_enum.Unlabeled.iter_connected_sharded}): a
    pure function of [(n, game, chunk, i, k)], so the [k] volumes can
    be built by independent processes or machines and reassembled by
    {!Merge} into bytes identical to a single-process build.  Progress
    lines are prefixed [[i/k]] and metered against the shard's own
    expected size, and [~shard:(1, 1)] is exactly the unsharded build
    (bytes included).  A shard volume resumes like any other store.
    @raise Invalid_argument when [n] is outside [1..11], [chunk < 1],
    [~game] is unknown, both [~game] and [~with_ucg] are given, or the
    shard is outside [1 <= i <= k <= 16].
    @raise Failure when [path] already exists and [force] is not set. *)

val content : ?game:string -> ?with_ucg:bool -> int -> Layout.content
(** What an atlas on [n] vertices carries: [~game]'s content
    ({!content_of_game}), else the classic layout with the UCG column
    when [with_ucg] (default [n <= 7]).
    @raise Invalid_argument on an unknown game, or when both are given. *)

val iter_annotated :
  ?skip:int ->
  ?shard:int * int ->
  chunk:int ->
  Layout.content ->
  int ->
  (int -> Nf_graph.Graph.t array -> Layout.record array -> unit) ->
  unit
(** [iter_annotated ~chunk content n f]: the one chunked annotation
    pipeline, shared by store builds and fresh [Nf_analysis.Source]s.
    Streams every connected class on [n] vertices (of shard [~shard]
    only, when given) in chunks of [chunk], annotates each chunk across
    the {!Nf_util.Pool} domains with the per-record annotator a store of
    [content] writes with (one sweep-tier symmetry detection and one
    kernel workspace borrow per graph, covering every region of the
    record), and calls [f i graphs records] per chunk [i] in stream
    order.  Chunks below [skip] (default 0) are enumerated but neither
    annotated nor passed to [f]. *)

val resume : ?report:(string -> unit) -> path:string -> unit -> outcome
(** Continue an interrupted build from [path ^ ".part"].
    @raise Failure when there is nothing to resume.
    @raise Layout.Corrupt when the part file's header is invalid. *)

(**/**)

val content_of_game : string -> Layout.content
(** The content descriptor [~game] maps to (exposed for Index/Query and
    tests). @raise Invalid_argument on an unknown name. *)

val game_of_content : Layout.content -> string
(** Registry name for a store's content (classic stores read as
    ["bcg"]/["ucg"]). *)
