(** Merging the volumes of a sharded build back into one canonical
    store.

    {!Nf_enum.Unlabeled.iter_connected_sharded} splits the enumeration
    stream into [k] contiguous ranges, so concatenating the shard
    volumes' record streams in shard order reproduces the unsharded
    stream exactly; re-chunking it at the family's chunk size then
    reproduces the single-process chunk framing, and the merged file is
    {e byte-identical} to a store built in one process (the shard bits
    are cleared from the header, the footer totals recomputed, every
    chunk re-CRC-framed).  Inputs are strictly verified before any
    output is written, and the merged store is verified again before
    the outcome is reported. *)

type outcome = {
  path : string;
  n : int;
  game : string;  (** registry name of the annotating game *)
  shards : int;  (** how many volumes were folded in *)
  chunks : int;
  records : int;
  seconds : float;
}

val volumes : dir:string -> (string * Layout.header) list
(** The shard volumes found directly in [dir] (files whose header
    carries shard metadata), sorted by file name.  [.part] files,
    subdirectories, unsharded stores and files that do not start with
    the NFATLAS1 magic are ignored.
    @raise Failure when [dir] is not a directory, or naming the file
    when one starts with the magic but its header fails to decode. *)

val family : (string * Layout.header) list -> (string * Layout.header) list * Layout.header
(** Validate that the volumes form exactly one [k]-way split — same
    [n], content and chunk size throughout, shard indices covering
    [1..k] once each — and return them sorted by shard index together
    with the header the merged store carries (shard metadata cleared).
    @raise Failure naming the offending volume otherwise. *)

val merge :
  ?force:bool ->
  ?report:(string -> unit) ->
  paths:string list ->
  out:string ->
  unit ->
  outcome
(** Merge the shard volumes at [paths] into a canonical store at [out].
    Every pass — the up-front {!Reader.verify}, the record fold, the
    final re-verification — is one {!Reader.walk} off an input channel,
    holding one frame at a time, never a whole volume.
    @raise Failure when a path is not a store or has a damaged header,
    the volumes do not form a complete family, any input fails strict
    verification, or [out] exists and [force] is not set. *)

val merge_dir :
  ?force:bool ->
  ?report:(string -> unit) ->
  dir:string ->
  out:string ->
  unit ->
  outcome
(** {!merge} over {!volumes}[ ~dir].
    @raise Failure additionally when [dir] holds no shard volumes. *)
