(* Mmap-backed store reader: the one read path of every store query.

   Each volume is walked once by [Reader.walk] in [Frames] mode, which
   checks the framing, chunk sequence and footer totals through the
   16-byte chunk headers and skips every body unread; its frames
   (offset, length, record count, first ordinal) are the chunk
   directory.  The file is then mapped ([Unix.map_file], read-only,
   shared) through the same descriptor.  After that any record is an
   O(log chunks) binary search plus one lazy chunk decode, and the only
   store bytes this module keeps on the heap are the decoded chunks
   currently in the bounded cache.  [Service] holds its own columnar
   structures (a graph6 slab, region dictionaries), which it fills only
   through [iter] — the CRC-checked pass — so they never carry
   unchecked bytes (DESIGN.md §13).

   Ownership rules (DESIGN.md §13): the mapping is private to this
   module and immutable — bytes are only ever copied out per chunk
   frame, never aliased, so a concurrently replaced store file cannot
   corrupt records already decoded (and the kernel keeps the mapped
   pages of an unlinked file alive until unmap).  Unmapping itself is
   the GC's business; [close] only drops the decoded-chunk cache.

   Chunk bodies are not CRC-checked at open: a chunk's CRC is verified
   by [Layout.decode_chunk] the first time the chunk is actually
   decoded, so corruption surfaces as [Layout.Corrupt] on access, pinned
   to the damaged chunk, while the rest of the store keeps serving.

   A directory of shard volumes is served transparently: [Merge.family]
   proves the volumes form one complete split and each volume gets its
   own mapping, with record ordinals running across volumes in shard
   order (= unsharded enumeration order), so the directory reads as the
   store its merge would write. *)

module Layout = Nf_store.Layout
module Reader = Nf_store.Reader
module Merge = Nf_store.Merge
module Build = Nf_store.Build

type map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type volume = {
  vpath : string;
  map : map;
  vchunks : Reader.frame array;
  vrecords : int;
  vfirst : int;  (* store-wide ordinal of this volume's first record *)
}

type t = {
  path : string;
  header : Layout.header;  (* merged view: shard metadata cleared for directories *)
  vols : volume array;
  records : int;
  chunks : int;
  cache_cap : int;
  cache : (int * int, Layout.record array) Hashtbl.t;
  order : (int * int) Queue.t;  (* FIFO eviction order of cache keys *)
  lock : Mutex.t;
}

let fail path fmt =
  Printf.ksprintf (fun m -> raise (Layout.Corrupt (Printf.sprintf "%s: %s" path m))) fmt

let sub_string (map : map) ~pos ~len what path =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim map then
    fail path "unexpected end of mapped store reading %s at byte %d" what pos;
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get map (pos + i))
  done;
  Bytes.unsafe_to_string b

let open_volume ~vfirst path =
  let ic = Unix.in_channel_of_descr (Unix.openfile path [ Unix.O_RDONLY ] 0) in
  Fun.protect
    ~finally:(fun () -> In_channel.close ic)
    (fun () ->
      let scan, frames =
        try Reader.walk ic ~init:[] (Reader.Frames (fun acc f -> f :: acc))
        with Layout.Corrupt m -> fail path "%s" m
      in
      Option.iter (fail path "%s") scan.Reader.failure;
      let map =
        Bigarray.array1_of_genarray
          (Unix.map_file (Unix.descr_of_in_channel ic) Bigarray.char Bigarray.c_layout false
             [| scan.Reader.data_end + Layout.footer_size |])
      in
      ( {
          vpath = path;
          map;
          vchunks = Array.of_list (List.rev frames);
          vrecords = scan.Reader.records;
          vfirst;
        },
        scan.Reader.header ))

let open_store ?(cache_chunks = 64) ~path () =
  let vols, header =
    if Sys.file_exists path && Sys.is_directory path then begin
      let sorted, merged = Merge.family (Merge.volumes ~dir:path) in
      let vfirst = ref 0 in
      let vols =
        List.map
          (fun (p, _) ->
            let v, _ = open_volume ~vfirst:!vfirst p in
            vfirst := !vfirst + v.vrecords;
            v)
          sorted
      in
      (Array.of_list vols, merged)
    end
    else
      let v, header = open_volume ~vfirst:0 path in
      ([| v |], header)
  in
  let records = Array.fold_left (fun acc v -> acc + v.vrecords) 0 vols in
  let chunks = Array.fold_left (fun acc v -> acc + Array.length v.vchunks) 0 vols in
  {
    path;
    header;
    vols;
    records;
    chunks;
    cache_cap = max 0 cache_chunks;
    cache = Hashtbl.create 64;
    order = Queue.create ();
    lock = Mutex.create ();
  }

let path t = t.path
let header t = t.header
let n t = t.header.Layout.n
let content t = t.header.Layout.content
let game t = Build.game_of_content t.header.Layout.content
let length t = t.records
let chunks t = t.chunks
let volumes t = Array.to_list (Array.map (fun v -> v.vpath) t.vols)

let cached_chunks t =
  Mutex.lock t.lock;
  let k = Hashtbl.length t.cache in
  Mutex.unlock t.lock;
  k

(* CRC-checked decode of one chunk frame, copied out of the mapping *)
let decode_chunk t vi ci =
  let v = t.vols.(vi) in
  let e = v.vchunks.(ci) in
  let frame = sub_string v.map ~pos:e.Reader.offset ~len:e.Reader.length "chunk frame" v.vpath in
  let _, recs, _ = Layout.decode_chunk ~content:t.header.Layout.content frame ~pos:0 in
  if Array.length recs <> e.Reader.count then
    fail v.vpath "chunk %d decodes to %d records, directory said %d" ci (Array.length recs)
      e.Reader.count;
  recs

let chunk_records t vi ci =
  let key = (vi, ci) in
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.cache key in
  Mutex.unlock t.lock;
  match hit with
  | Some recs -> recs
  | None ->
    (* decode outside the lock: concurrent misses may both decode (the
       results are identical); insertion is serialized and bounded *)
    let recs = decode_chunk t vi ci in
    if t.cache_cap > 0 then begin
      Mutex.lock t.lock;
      if not (Hashtbl.mem t.cache key) then begin
        Hashtbl.replace t.cache key recs;
        Queue.add key t.order;
        while Hashtbl.length t.cache > t.cache_cap do
          Hashtbl.remove t.cache (Queue.pop t.order)
        done
      end;
      Mutex.unlock t.lock
    end;
    recs

(* store-wide ordinal -> (volume, chunk, offset): two binary searches *)
let locate t i =
  if i < 0 || i >= t.records then
    invalid_arg (Printf.sprintf "Mmap_reader: record %d out of bounds (store holds %d)" i t.records);
  let vi =
    let lo = ref 0 and hi = ref (Array.length t.vols - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.vols.(mid).vfirst <= i then lo := mid else hi := mid - 1
    done;
    !lo
  in
  let v = t.vols.(vi) in
  let local = i - v.vfirst in
  let ci =
    let lo = ref 0 and hi = ref (Array.length v.vchunks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if v.vchunks.(mid).Reader.first <= local then lo := mid else hi := mid - 1
    done;
    !lo
  in
  (vi, ci, local - v.vchunks.(ci).Reader.first)

let record t i =
  let vi, ci, off = locate t i in
  (chunk_records t vi ci).(off)

let graph6 t i = (record t i).Layout.graph6

(* streaming pass over all records in order; decodes each chunk once and
   bypasses the cache, so a full scan leaves the cache untouched *)
let iter t f =
  let i = ref 0 in
  Array.iteri
    (fun vi v ->
      Array.iteri
        (fun ci _ ->
          Array.iter
            (fun r ->
              f !i r;
              incr i)
            (decode_chunk t vi ci))
        v.vchunks)
    t.vols

let close t =
  Mutex.lock t.lock;
  Hashtbl.reset t.cache;
  Queue.clear t.order;
  Mutex.unlock t.lock
