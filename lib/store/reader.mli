(** Reading, scanning and verifying store files.

    Two disciplines over the same bytes:

    - {!scan} is {e tolerant}: it identifies the longest valid
      [header; chunk 0 .. k-1] prefix and ignores whatever follows (a
      partially written chunk from a killed build, trailing garbage).
      This is what crash-resume builds on — every chunk in the reported
      prefix is CRC-verified and fully parsed.
    - {!verify} is {e strict}: every byte must be accounted for by a
      valid header, consecutively numbered CRC-clean chunks whose graphs
      decode to the header's order, and a footer with matching totals.
      A single flipped byte anywhere in the file yields [Error], and a
      failure inside the chunk run is pinned to the offending chunk
      index and the byte offset its frame starts at — so a damaged
      volume names the exact region to refetch or rebuild. *)

type scan = {
  header : Layout.header;
  chunks : int;  (** complete chunks in the valid prefix *)
  records : int;  (** records in those chunks *)
  data_end : int;  (** byte offset just past the last complete chunk *)
  complete : bool;  (** a valid footer with matching totals ends the file *)
}

val scan : path:string -> scan
(** Tolerant prefix scan.
    @raise Layout.Corrupt when even the header is invalid.
    @raise Sys_error when the file cannot be read. *)

val verify : path:string -> (scan, string) result
(** Strict whole-file verification; never raises. *)

val scan_string : string -> scan
val verify_string : string -> (scan, string) result
(** In-memory variants, exposed for tests. *)

(** {2 Streaming access}

    Constant-memory counterparts of the whole-file paths: the store is
    pulled through a channel one CRC-framed chunk at a time, so an
    n=10-scale volume merges or verifies without ever being resident as
    a string. *)

val fold_chunks :
  path:string ->
  init:'a ->
  (Layout.header -> 'a -> int -> Layout.record array -> 'a) ->
  Layout.header * 'a * int * int
(** [fold_chunks ~path ~init f] folds [f header acc index records] over
    the chunks of a {e complete} store in order, holding one decoded
    chunk at a time, and returns [(header, acc, chunks, records)].
    Strict like {!verify}: raises {!Layout.Corrupt} on any CRC or
    framing damage, a chunk out of sequence, a missing footer, footer
    totals that disagree with the stream, or trailing bytes.
    @raise Sys_error when the file cannot be read. *)

val verify_stream : path:string -> (scan, string) result
(** Strict whole-file verification with {!fold_chunks}' memory profile —
    the record-level checks of {!verify} (graph6 decodes, order matches
    the header) over one chunk at a time; never raises.  Corruption
    messages are pinned to the chunk index. *)
