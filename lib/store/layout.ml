module Interval = Nf_util.Interval
module Rat = Nf_util.Rat

(* On-disk layout of an equilibrium-atlas store (all integers little
   endian, fixed width; no timestamps or other machine-dependent bytes, so
   identical inputs always produce identical files):

     header   "NFATLAS1" | u16 schema | u16 n | u32 flags | u32 chunk
              | u32 crc(preceding 20 bytes)
     chunk*   "CHNK" | u32 index | u32 #records | u32 body_len | body
              | u32 crc(header+body)
     footer   "FEND" | u32 #chunks | u32 #records | u32 crc(preceding 12)

   flags bit 1 clear — a classic store (game schema tags 0/1):
     bit 0: records carry a UCG Nash α-set after the BCG interval.
     Flags 0 and 1 are exactly the pre-game-registry encodings, so
     BCG/UCG stores stay byte-identical.
   flags bit 1 set — a single-game store:
     bit 2: the region is an interval union (else a single interval);
     bit 3: the game instance carries parameter bytes, appended after
       the fixed header as  u16 len | param bytes | u32 crc(len+bytes)
       (append-only: clear — and no section — for every parameterless
       game, so all pre-params game stores keep their exact bytes);
     bits 8..23: the game family's registry schema tag.  Bit 0 and bits
     4..7 must be clear.
   flags bits 24..31 — shard metadata (append-only, like the game tags):
     all clear for a whole (unsharded or merged) store — so every
     pre-shard NFATLAS1 file keeps its exact bytes — else bits 24..27
     hold the 1-based shard index minus one and bits 28..31 the shard
     count minus one (k in 2..16, 1 <= i <= k).  A shard volume holds
     shard i of the k-way parent-prefix split of the enumeration
     stream (Nf_enum.Unlabeled.iter_connected_sharded); concatenating
     the k volumes' records in index order is the unsharded stream.
   Record body:  u16 len | graph6 bytes | region, where the region is
                 interval | [union] for classic stores, and a single
                 interval or union (per flags bit 2) for game stores.
   Interval:     u8 0 (empty) or u8 1 | endpoint | u8 lo_closed
                 | endpoint | u8 hi_closed.
   Endpoint:     u8 0 (-inf) / 2 (+inf), or u8 1 | i64 num | i64 den.
   Union:        u16 #pieces | pieces (each a non-empty interval). *)

let magic = "NFATLAS1"
let chunk_magic = "CHNK"
let footer_magic = "FEND"
let schema_version = 1
let header_size = 24
let chunk_header_size = 16
let footer_size = 16

type content =
  | Classic of { with_ucg : bool }
  | Game of { tag : int; union : bool; params : string }

type header = { n : int; content : content; chunk_size : int; shard : (int * int) option }
type record = { graph6 : string; bcg : Interval.t; ucg : Interval.Union.t option }

let content_with_ucg = function
  | Classic { with_ucg } -> with_ucg
  | Game _ -> false

let classic ~with_ucg = Classic { with_ucg }

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* --- primitive writes --------------------------------------------------- *)

let add_u16 buf v = Buffer.add_uint16_le buf v
let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* --- primitive reads (bounds-checked: decoding must never walk off the
   end of a truncated or corrupted file, it must raise {!Corrupt}) -------- *)

let need s pos len what =
  if pos < 0 || len < 0 || pos + len > String.length s then
    fail "unexpected end of data reading %s at byte %d" what pos

let get_u8 s pos what =
  need s pos 1 what;
  Char.code s.[pos]

let get_u16 s pos what =
  need s pos 2 what;
  String.get_uint16_le s pos

let get_u32 s pos what =
  need s pos 4 what;
  Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

let get_i64 s pos what =
  need s pos 8 what;
  Int64.to_int (String.get_int64_le s pos)

(* --- intervals ---------------------------------------------------------- *)

let add_endpoint buf = function
  | Interval.Neg_inf -> Buffer.add_char buf '\000'
  | Interval.Finite r ->
    Buffer.add_char buf '\001';
    add_i64 buf (Rat.num r);
    add_i64 buf (Rat.den r)
  | Interval.Pos_inf -> Buffer.add_char buf '\002'

let get_endpoint s pos =
  match get_u8 s pos "endpoint tag" with
  | 0 -> (Interval.Neg_inf, pos + 1)
  | 2 -> (Interval.Pos_inf, pos + 1)
  | 1 ->
    let num = get_i64 s (pos + 1) "endpoint numerator" in
    let den = get_i64 s (pos + 9) "endpoint denominator" in
    if den <= 0 then fail "non-positive endpoint denominator at byte %d" (pos + 9);
    (Interval.Finite (Rat.make num den), pos + 17)
  | tag -> fail "bad endpoint tag %d at byte %d" tag pos

let add_interval buf i =
  match Interval.bounds i with
  | None -> Buffer.add_char buf '\000'
  | Some (lo, lo_closed, hi, hi_closed) ->
    Buffer.add_char buf '\001';
    add_endpoint buf lo;
    Buffer.add_char buf (if lo_closed then '\001' else '\000');
    add_endpoint buf hi;
    Buffer.add_char buf (if hi_closed then '\001' else '\000')

let get_bool s pos what =
  match get_u8 s pos what with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad boolean %d for %s at byte %d" v what pos

let get_interval s pos =
  match get_u8 s pos "interval tag" with
  | 0 -> (Interval.empty, pos + 1)
  | 1 ->
    let lo, pos = get_endpoint s (pos + 1) in
    let lo_closed = get_bool s pos "lo_closed" in
    let hi, pos = get_endpoint s (pos + 1) in
    let hi_closed = get_bool s pos "hi_closed" in
    (Interval.make ~lo ~lo_closed ~hi ~hi_closed, pos + 1)
  | tag -> fail "bad interval tag %d at byte %d" tag pos

let add_union buf u =
  let pieces = Interval.Union.to_list u in
  add_u16 buf (List.length pieces);
  List.iter (add_interval buf) pieces

let get_union s pos =
  let count = get_u16 s pos "union piece count" in
  let pos = ref (pos + 2) in
  let pieces =
    List.init count (fun _ ->
        let i, next = get_interval s !pos in
        pos := next;
        i)
  in
  (Interval.Union.of_list pieces, !pos)

(* --- records ------------------------------------------------------------ *)

(* Region placement convention: classic records and interval-game records
   keep their interval in [bcg] ([ucg] carries the classic union when the
   flag is set); union-game records keep their union in [ucg = Some _]
   with [bcg] unused (Interval.empty, never serialized). *)
let add_record buf ~content r =
  if String.length r.graph6 > 0xFFFF then invalid_arg "Layout.add_record: graph6 too long";
  add_u16 buf (String.length r.graph6);
  Buffer.add_string buf r.graph6;
  match content with
  | Classic { with_ucg } -> (
    add_interval buf r.bcg;
    match (with_ucg, r.ucg) with
    | true, Some u -> add_union buf u
    | false, None -> ()
    | true, None -> invalid_arg "Layout.add_record: UCG payload required by header flags"
    | false, Some _ -> invalid_arg "Layout.add_record: unexpected UCG payload")
  | Game { union = false; _ } -> (
    add_interval buf r.bcg;
    match r.ucg with
    | None -> ()
    | Some _ -> invalid_arg "Layout.add_record: unexpected union payload in interval-game store")
  | Game { union = true; _ } -> (
    match r.ucg with
    | Some u -> add_union buf u
    | None -> invalid_arg "Layout.add_record: union payload required by header flags")

let get_record s pos ~content =
  let len = get_u16 s pos "graph6 length" in
  need s (pos + 2) len "graph6 string";
  let graph6 = String.sub s (pos + 2) len in
  if len = 0 then fail "empty graph6 string at byte %d" pos;
  let pos = pos + 2 + len in
  match content with
  | Classic { with_ucg } ->
    let bcg, pos = get_interval s pos in
    if with_ucg then
      let u, pos = get_union s pos in
      ({ graph6; bcg; ucg = Some u }, pos)
    else ({ graph6; bcg; ucg = None }, pos)
  | Game { union = false; _ } ->
    let bcg, pos = get_interval s pos in
    ({ graph6; bcg; ucg = None }, pos)
  | Game { union = true; _ } ->
    let u, pos = get_union s pos in
    ({ graph6; bcg = Interval.empty; ucg = Some u }, pos)

(* --- header ------------------------------------------------------------- *)

let flags_of_content = function
  | Classic { with_ucg } -> if with_ucg then 1 else 0
  | Game { tag; union; params } ->
    if tag < 0 || tag > 0xFFFF then invalid_arg "Layout: game schema tag out of range";
    if String.length params > 0xFFFF then invalid_arg "Layout: game params too long";
    0x2
    lor (if union then 0x4 else 0)
    lor (if params <> "" then 0x8 else 0)
    lor (tag lsl 8)

(* The params bit (0x8) is deliberately NOT accepted here: its bytes live
   in the extension section after the fixed header, which only
   {!decode_header} can see — it strips the bit and fills [params]
   itself.  A bare flags word claiming params is malformed. *)
let content_of_flags flags =
  if flags land 0x2 = 0 then begin
    if flags land lnot 1 <> 0 then fail "unknown flag bits %x" flags;
    Classic { with_ucg = flags land 1 = 1 }
  end
  else begin
    if flags land lnot (0x2 lor 0x4 lor 0xFFFF00) <> 0 then
      fail "unknown flag bits %x" flags;
    Game { tag = (flags lsr 8) land 0xFFFF; union = flags land 0x4 <> 0; params = "" }
  end

let header_params = function
  | Classic _ -> ""
  | Game { params; _ } -> params

let header_bytes h =
  let params = header_params h.content in
  if params = "" then header_size else header_size + 2 + String.length params + 4

let header_has_params s =
  String.length s >= 16
  &&
  let flags = Int32.to_int (String.get_int32_le s 12) land 0xFFFFFFFF in
  flags land 0x2 <> 0 && flags land 0x8 <> 0

let max_shards = 16

let shard_flag_bits = function
  | None -> 0
  | Some (i, k) ->
    if k < 2 || k > max_shards || i < 1 || i > k then
      invalid_arg
        (Printf.sprintf "Layout: shard %d/%d out of range (1 <= i <= k, 2 <= k <= %d)" i k
           max_shards);
    ((i - 1) lsl 24) lor ((k - 1) lsl 28)

let shard_of_flags flags =
  let bits = (flags lsr 24) land 0xFF in
  if bits = 0 then None
  else begin
    let i = (bits land 0xF) + 1 in
    let k = (bits lsr 4) + 1 in
    if k < 2 || i > k then fail "bad shard metadata %d/%d in flags %x" i k flags;
    Some (i, k)
  end

let encode_header h =
  if h.n < 1 || h.n > 62 then invalid_arg "Layout.encode_header: n out of range";
  if h.chunk_size < 1 then invalid_arg "Layout.encode_header: chunk_size < 1";
  let buf = Buffer.create header_size in
  Buffer.add_string buf magic;
  add_u16 buf schema_version;
  add_u16 buf h.n;
  add_u32 buf (flags_of_content h.content lor shard_flag_bits h.shard);
  add_u32 buf h.chunk_size;
  let body = Buffer.contents buf in
  add_u32 buf (Crc32.string body);
  (* the parameter extension section, present exactly when flag bit 3 is *)
  (match header_params h.content with
  | "" -> ()
  | params ->
    let ext = Buffer.create (2 + String.length params) in
    add_u16 ext (String.length params);
    Buffer.add_string ext params;
    let ext_body = Buffer.contents ext in
    Buffer.add_string buf ext_body;
    add_u32 buf (Crc32.string ext_body));
  Buffer.contents buf

let decode_header s =
  need s 0 header_size "header";
  if String.sub s 0 8 <> magic then fail "bad magic (not an nf_store file)";
  let stored_crc = get_u32 s 20 "header crc" in
  let actual_crc = Crc32.sub s ~pos:0 ~len:20 in
  if stored_crc <> actual_crc then
    fail "header crc mismatch (stored %08x, computed %08x)" stored_crc actual_crc;
  let schema = get_u16 s 8 "schema version" in
  if schema <> schema_version then fail "unsupported schema version %d" schema;
  let n = get_u16 s 10 "n" in
  if n < 1 || n > 62 then fail "n = %d out of range" n;
  let flags = get_u32 s 12 "flags" in
  let shard = shard_of_flags flags in
  let has_params = flags land 0x2 <> 0 && flags land 0x8 <> 0 in
  let content_flags = flags land lnot 0xFF000000 in
  let content =
    content_of_flags (if has_params then content_flags land lnot 0x8 else content_flags)
  in
  let content =
    if not has_params then content
    else begin
      let len = get_u16 s header_size "parameter length" in
      if len = 0 then fail "empty parameter section (flag bit 3 set, no bytes)";
      need s (header_size + 2) len "parameter bytes";
      let params = String.sub s (header_size + 2) len in
      let stored = get_u32 s (header_size + 2 + len) "parameter crc" in
      let actual = Crc32.sub s ~pos:header_size ~len:(2 + len) in
      if stored <> actual then
        fail "parameter crc mismatch (stored %08x, computed %08x)" stored actual;
      match content with
      | Game { tag; union; params = _ } -> Game { tag; union; params }
      | Classic _ -> assert false (* has_params requires flag bit 1 *)
    end
  in
  let chunk_size = get_u32 s 16 "chunk size" in
  if chunk_size < 1 then fail "chunk size %d < 1" chunk_size;
  { n; content; chunk_size; shard }

(* --- chunks ------------------------------------------------------------- *)

let encode_chunk ~index ~content records =
  let body = Buffer.create 4096 in
  Array.iter (add_record body ~content) records;
  let buf = Buffer.create (Buffer.length body + chunk_header_size + 4) in
  Buffer.add_string buf chunk_magic;
  add_u32 buf index;
  add_u32 buf (Array.length records);
  add_u32 buf (Buffer.length body);
  Buffer.add_buffer buf body;
  let framed = Buffer.contents buf in
  add_u32 buf (Crc32.string framed);
  Buffer.contents buf

(* The smallest record: u16 length, one graph6 byte, one region byte. *)
let min_record_size = 4

let decode_chunk_header s ~pos =
  need s pos chunk_header_size "chunk header";
  if String.sub s pos 4 <> chunk_magic then fail "bad chunk magic at byte %d" pos;
  let index = get_u32 s (pos + 4) "chunk index" in
  let count = get_u32 s (pos + 8) "chunk record count" in
  let body_len = get_u32 s (pos + 12) "chunk body length" in
  if count > body_len / min_record_size then
    fail "chunk %d declares %d records, more than its %d-byte body can hold" index count body_len;
  (index, count, body_len)

let decode_chunk ~content s ~pos =
  let index, count, body_len = decode_chunk_header s ~pos in
  let framed_len = chunk_header_size + body_len in
  need s pos (framed_len + 4) "chunk body";
  let stored_crc = get_u32 s (pos + framed_len) "chunk crc" in
  let actual_crc = Crc32.sub s ~pos ~len:framed_len in
  if stored_crc <> actual_crc then
    fail "chunk %d crc mismatch at byte %d (stored %08x, computed %08x)" index pos stored_crc
      actual_crc;
  let body_end = pos + framed_len in
  let cursor = ref (pos + chunk_header_size) in
  let records =
    Array.init count (fun _ ->
        let r, next = get_record s !cursor ~content in
        cursor := next;
        r)
  in
  if !cursor <> body_end then
    fail "chunk %d body length mismatch (%d bytes of records, %d declared)" index
      (!cursor - pos - chunk_header_size) body_len;
  (index, records, body_end + 4)

(* --- footer ------------------------------------------------------------- *)

let encode_footer ~chunks ~records =
  let buf = Buffer.create footer_size in
  Buffer.add_string buf footer_magic;
  add_u32 buf chunks;
  add_u32 buf records;
  let body = Buffer.contents buf in
  add_u32 buf (Crc32.string body);
  Buffer.contents buf

let decode_footer s ~pos =
  need s pos footer_size "footer";
  if String.sub s pos 4 <> footer_magic then fail "bad footer magic at byte %d" pos;
  let stored_crc = get_u32 s (pos + 12) "footer crc" in
  let actual_crc = Crc32.sub s ~pos ~len:12 in
  if stored_crc <> actual_crc then
    fail "footer crc mismatch (stored %08x, computed %08x)" stored_crc actual_crc;
  let chunks = get_u32 s (pos + 4) "footer chunk count" in
  let records = get_u32 s (pos + 8) "footer record count" in
  (chunks, records, pos + footer_size)
