(** Binary on-disk layout of the equilibrium-atlas store.

    A store file is a fixed header keyed by [(n, game flags, schema
    version)], a run of self-describing CRC-32-framed chunks of records
    (one record per connected isomorphism class: graph6 string, exact BCG
    stable interval, optional UCG Nash α-set), and a footer with the
    totals.  All integers are little endian and nothing machine- or
    time-dependent is ever written, so a store's bytes are a pure
    function of [(n, flags, chunk size)] — the property the
    crash-resume parity guarantee rests on.

    Decoding never trusts the input: every read is bounds-checked and
    every frame is CRC-verified before its records are parsed, so
    truncated or corrupted files raise {!Corrupt} rather than producing
    garbage (or a crash). *)

(** What a store's records carry, encoded in the header flags.
    [Classic] is the original dual-region layout (BCG interval, plus the
    UCG union when [with_ucg]) — its two flag values are exactly the
    pre-registry encodings, so existing stores are byte-identical.
    [Game] is a single-game store: one region per record, shaped by
    [union], for the registered game instance with that family schema
    [tag] ({!Netform.Game.S.schema_tag}) and exact parameter bytes
    [params] ({!Netform.Game.S.params}) — [""] for parameterless
    instances, whose headers are byte-identical to the pre-params
    encoding (DESIGN.md §15). *)
type content =
  | Classic of { with_ucg : bool }
  | Game of { tag : int; union : bool; params : string }

type header = {
  n : int;  (** number of players / vertices, [1..62] *)
  content : content;  (** record payload layout *)
  chunk_size : int;  (** records per full chunk (the last may be short) *)
  shard : (int * int) option;
      (** [Some (i, k)]: this volume holds shard [i] of a [k]-way
          parent-prefix split of the enumeration stream
          ({!Nf_enum.Unlabeled.iter_connected_sharded}); [None] for a
          whole (unsharded or merged) store.  Encoded append-only in
          flag bits 24..31, so unsharded stores keep their exact
          pre-shard bytes. *)
}

type record = {
  graph6 : string;
  bcg : Nf_util.Interval.t;
      (** the interval region ([Interval.empty] and unused in
          union-game stores) *)
  ucg : Nf_util.Interval.Union.t option;
      (** [Some] iff the content is classic-with-UCG or a union game *)
}

val content_with_ucg : content -> bool
(** Whether records carry the classic UCG payload. *)

val classic : with_ucg:bool -> content

val flags_of_content : content -> int
(** The header flags word: [Classic] encodes to the pre-registry values
    0/1; [Game] sets bit 1, bit 2 for a union region, bit 3 when
    [params] is non-empty, and the schema tag in bits 8..23.
    @raise Invalid_argument when the tag is outside [0..0xFFFF] or the
    params exceed [0xFFFF] bytes. *)

val content_of_flags : int -> content
(** Strict inverse on parameterless content — any unknown flag bit
    raises {!Corrupt} rather than being ignored, so a store written by a
    future schema is rejected.  Shard bits (24..31) are {e not} accepted
    here ({!decode_header} strips them via {!shard_of_flags} first), and
    neither is the params bit 3: its bytes live in the extension section
    after the fixed header, which only {!decode_header} can read. *)

val header_bytes : header -> int
(** Total encoded header length: {!header_size}, plus
    [2 + length params + 4] when the content carries parameter bytes.
    Chunk data starts at this offset. *)

val header_has_params : string -> bool
(** Peek at the flags word of an encoded header prefix (≥ 16 bytes):
    does a parameter extension section follow the fixed
    {!header_size} bytes?  No CRC validation — callers use this to size
    the full read before {!decode_header}. *)

val max_shards : int
(** Largest representable shard count (16: four flag bits). *)

val shard_flag_bits : (int * int) option -> int
(** Shard metadata as flag bits 24..31 ([0] for [None]).
    @raise Invalid_argument outside [1 <= i <= k], [2 <= k <= 16]. *)

val shard_of_flags : int -> (int * int) option
(** Strict inverse of {!shard_flag_bits} on bits 24..31.
    @raise Corrupt on malformed shard metadata (index without a count,
    or index above the count). *)

exception Corrupt of string
(** Raised by every [decode_*] function on malformed input. *)

val magic : string
val chunk_magic : string
val footer_magic : string
val schema_version : int
val header_size : int
val chunk_header_size : int
val footer_size : int

val encode_header : header -> string
(** The fixed {!header_size} bytes, plus the parameter extension section
    ([u16 len | bytes | u32 crc]) when the content carries params.
    @raise Invalid_argument when [n] or [chunk_size] is out of range. *)

val decode_header : string -> header
(** Validates magic, CRC, schema version and field ranges on the first
    {!header_size} bytes, then reads (and CRC-checks) the parameter
    extension section when flag bit 3 announces one — [s] must contain
    {!header_bytes} bytes in that case. *)

val encode_chunk : index:int -> content:content -> record array -> string
(** One framed chunk: header, record bodies, trailing CRC over the
    whole frame.
    @raise Invalid_argument when a record's payload contradicts
    [content]. *)

val decode_chunk_header : string -> pos:int -> int * int * int
(** [decode_chunk_header s ~pos] is the [(index, record count, body
    length)] of the {!chunk_header_size}-byte frame header at [pos].
    A count that cannot fit in the body at the minimum record size
    (4 bytes) raises {!Corrupt}, so no decoder ever sizes an allocation
    by a forged count. *)

val decode_chunk : content:content -> string -> pos:int -> int * record array * int
(** [decode_chunk ~content s ~pos] is [(index, records, next_pos)]:
    {!decode_chunk_header}'s checks, then the CRC, verified {e before}
    any record is parsed. *)

val encode_footer : chunks:int -> records:int -> string
val decode_footer : string -> pos:int -> int * int * int
(** [(chunks, records, next_pos)]. *)
