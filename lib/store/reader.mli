(** Reading, scanning and verifying store files: one forward walk.

    {!walk} is the only loop over NFATLAS1 frames.  It reads the header
    once, then steps through the chunk frames off an input channel,
    holding one frame at a time, and ends at one of two points: a footer
    whose totals match and which ends the file, or the first failure.  A
    failure is reported, never raised, as the valid prefix (chunks,
    records, [data_end]) plus a reason:

    - a file that ends before its footer — a cut mid-chunk, at a chunk
      boundary or mid-footer — is
      ["incomplete store (R records in C complete chunks; resume the build)"];
    - any other damage is pinned to the chunk index and the byte offset
      its frame starts at, ["chunk I (frame at byte B): …"], so a damaged
      volume names the exact region to refetch or rebuild.

    Its users differ only in what they do with each frame:

    - {!scan} is {e tolerant}: it keeps the prefix, which is what
      crash-resume builds on — every chunk in it is CRC-verified and
      fully parsed.
    - {!verify} is {e strict}: any failure is an [Error], and every
      chunk must also be non-empty, no larger than the header's chunk
      size, and hold graphs that decode to the header's order.
    - [Merge] verifies and re-chunks volumes through it, and
      [Nf_serve.Mmap_reader] builds its chunk directory from {!Frames},
      which skips chunk bodies unread. *)

type scan = {
  header : Layout.header;
  chunks : int;  (** complete chunks in the valid prefix *)
  records : int;  (** records in those chunks *)
  data_end : int;  (** byte offset just past the last complete chunk *)
  failure : string option;
      (** [None] when a footer with matching totals ends the file; else
          why the walk stopped after the prefix *)
}

type frame = {
  offset : int;  (** byte offset of the frame in the file *)
  length : int;  (** whole frame length, header through CRC *)
  first : int;  (** ordinal of the chunk's first record *)
  count : int;  (** records the frame header declares *)
}

type 'a visit =
  | Frames of ('a -> frame -> 'a)
      (** framing only: each chunk's 16-byte header is checked (magic,
          sequence, a record count its body can hold, a length within
          the file) and its body skipped — neither read nor CRC-checked *)
  | Records of (Layout.header -> 'a -> frame -> Layout.record array -> 'a)
      (** each frame is read, CRC-checked and decoded before the
          callback sees its records *)

val walk : In_channel.t -> init:'a -> 'a visit -> scan * 'a
(** [walk ic ~init visit] folds [visit] over the chunks of the store
    read from [ic] (positioned at its start), in order.  A callback may
    reject its chunk by raising {!Layout.Corrupt}: the walk then stops
    there, with the reason pinned to that chunk.
    @raise Layout.Corrupt when the header is missing or invalid.
    @raise Sys_error when the channel cannot be read. *)

val header : path:string -> Layout.header option
(** The header alone, through the same read as {!walk}: [None] when the
    file does not start with the NFATLAS1 magic at all.
    @raise Layout.Corrupt when it does but the header fails to decode.
    @raise Sys_error when the file cannot be read. *)

val scan : path:string -> scan
(** Tolerant prefix scan.
    @raise Layout.Corrupt when even the header is invalid.
    @raise Sys_error when the file cannot be read. *)

val verify : path:string -> (scan, string) result
(** Strict whole-file verification; never raises. *)
