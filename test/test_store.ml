(* Tests for nf_store: CRC32, the binary layout codecs, tolerant scan
   vs strict verify, crash-resume byte parity, and stores read back
   through Nf_serve.Service checked against a fresh nf_analysis
   annotation. *)

module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Pool = Nf_util.Pool
module Graph = Nf_graph.Graph
module Graph6 = Nf_graph.Graph6
open Nf_store
module Service = Nf_serve.Service
module Mmap_reader = Nf_serve.Mmap_reader
module Source = Nf_analysis.Source
module Figures = Nf_analysis.Figures

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let interval = Alcotest.testable Interval.pp Interval.equal
let graph = Alcotest.testable Graph.pp Graph.equal

(* --- fixtures ----------------------------------------------------------- *)

let temp_store () =
  let path = Filename.temp_file "nf_store_test" ".nfs" in
  Sys.remove path;
  path

let cleanup path =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; Writer.part_path path ]

let with_store ?with_ucg ?(chunk = 4) n f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let outcome = Build.build ?with_ucg ~chunk ~path ~n () in
      f path outcome)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let raises_invalid what f =
  check_bool what true (match f () with exception Invalid_argument _ -> true | _ -> false)

let raises_corrupt what f =
  check_bool what true (match f () with exception Layout.Corrupt _ -> true | _ -> false)

(* --- CRC32 -------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* standard check values for the IEEE 802.3 / zlib polynomial *)
  check_int "empty" 0 (Crc32.string "");
  check_int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check_int "a" 0xE8B7BE43 (Crc32.string "a")

let test_crc32_compose () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  for cut = 0 to String.length s do
    let left = Crc32.sub s ~pos:0 ~len:cut in
    let joined = Crc32.update left s ~pos:cut ~len:(String.length s - cut) in
    check_int "split point" whole joined
  done;
  raises_invalid "bad range" (fun () -> Crc32.sub s ~pos:0 ~len:(String.length s + 1))

(* --- layout codecs ------------------------------------------------------ *)

let test_header_roundtrip () =
  List.iter
    (fun h ->
      let s = Layout.encode_header h in
      check_int "header size" Layout.header_size (String.length s);
      let h' = Layout.decode_header s in
      check_int "n" h.Layout.n h'.Layout.n;
      check_bool "content" true (h.Layout.content = h'.Layout.content);
      check_int "chunk size" h.Layout.chunk_size h'.Layout.chunk_size;
      check_bool "shard" true (h.Layout.shard = h'.Layout.shard))
    [
      { Layout.n = 1; content = Layout.classic ~with_ucg:false; chunk_size = 1; shard = None };
      { Layout.n = 7; content = Layout.classic ~with_ucg:true; chunk_size = 512; shard = None };
      {
        Layout.n = 62;
        content = Layout.classic ~with_ucg:false;
        chunk_size = 100_000;
        shard = None;
      };
      { Layout.n = 5; content = Layout.Game { tag = 2; union = false; params = "" }; chunk_size = 8; shard = None };
      {
        Layout.n = 5;
        content = Layout.Game { tag = 0xBEEF; union = true; params = "" };
        chunk_size = 8;
        shard = None;
      };
      { Layout.n = 7; content = Layout.classic ~with_ucg:true; chunk_size = 512; shard = Some (1, 2) };
      {
        Layout.n = 9;
        content = Layout.Game { tag = 2; union = false; params = "" };
        chunk_size = 512;
        shard = Some (16, 16);
      };
      { Layout.n = 6; content = Layout.classic ~with_ucg:false; chunk_size = 8; shard = Some (3, 5) };
    ];
  raises_invalid "n out of range" (fun () ->
      Layout.encode_header
        { Layout.n = 63; content = Layout.classic ~with_ucg:false; chunk_size = 1; shard = None });
  raises_invalid "chunk out of range" (fun () ->
      Layout.encode_header
        { Layout.n = 5; content = Layout.classic ~with_ucg:false; chunk_size = 0; shard = None });
  raises_invalid "tag out of range" (fun () ->
      Layout.encode_header
        {
          Layout.n = 5;
          content = Layout.Game { tag = 0x10000; union = false; params = "" };
          chunk_size = 1;
          shard = None;
        });
  let good =
    Layout.encode_header
      { Layout.n = 5; content = Layout.classic ~with_ucg:true; chunk_size = 8; shard = None }
  in
  raises_corrupt "bad magic" (fun () -> Layout.decode_header ("X" ^ String.sub good 1 23));
  raises_corrupt "short" (fun () -> Layout.decode_header (String.sub good 0 10))

(* the flags byte layout is a compatibility contract: classic stores keep
   their original 0/1 values, game stores set bit 1 and carry the schema
   tag in bits 8..23 *)
let test_content_flags_contract () =
  check_int "classic bcg" 0 (Layout.flags_of_content (Layout.classic ~with_ucg:false));
  check_int "classic dual" 1 (Layout.flags_of_content (Layout.classic ~with_ucg:true));
  check_int "game interval" (0x2 lor (3 lsl 8))
    (Layout.flags_of_content (Layout.Game { tag = 3; union = false; params = "" }));
  check_int "game union" (0x2 lor 0x4 lor (1 lsl 8))
    (Layout.flags_of_content (Layout.Game { tag = 1; union = true; params = "" }));
  List.iter
    (fun flags ->
      check_bool "roundtrip" true
        (Layout.flags_of_content (Layout.content_of_flags flags) = flags))
    [ 0; 1; 0x2; 0x6; 0x2 lor (7 lsl 8); 0x6 lor (0xFFFF lsl 8) ];
  (* unknown bits must be rejected, not ignored *)
  List.iter
    (fun flags ->
      raises_corrupt "unknown bits" (fun () -> ignore (Layout.content_of_flags flags)))
    [ 2 lor 1; 4; 8; 0x2 lor 0x8; 0x2 lor (1 lsl 24); 1 lsl 8 ]

(* shard metadata rides in flag bits 24..31, append-only: an unsharded
   header encodes them as zero, so every pre-shard store byte is
   untouched (the golden md5 tests below pin that), and the codecs
   roundtrip every legal (i, k) while rejecting malformed bit patterns *)
let test_shard_flags_contract () =
  check_int "unsharded" 0 (Layout.shard_flag_bits None);
  check_bool "zero decodes to None" true (Layout.shard_of_flags 0 = None);
  check_int "1/2" (1 lsl 28) (Layout.shard_flag_bits (Some (1, 2)));
  check_int "16/16" ((15 lsl 24) lor (15 lsl 28)) (Layout.shard_flag_bits (Some (16, 16)));
  for k = 2 to Layout.max_shards do
    for i = 1 to k do
      let bits = Layout.shard_flag_bits (Some (i, k)) in
      check_bool "only bits 24..31" true (bits land 0xFFFFFF = 0);
      check_bool "roundtrip" true (Layout.shard_of_flags bits = Some (i, k))
    done
  done;
  List.iter
    (fun s -> raises_invalid "bad shard" (fun () -> ignore (Layout.shard_flag_bits (Some s))))
    [ (0, 2); (3, 2); (1, 1); (1, 17); (1, 0) ];
  (* an index nibble without a count nibble, or index > count, is corrupt *)
  List.iter
    (fun bits -> raises_corrupt "bad shard bits" (fun () -> ignore (Layout.shard_of_flags bits)))
    [ 1 lsl 24; 3 lsl 24; (2 lsl 24) lor (1 lsl 28) ]

(* the parameter extension rides after the fixed header as
   u16 len | bytes | u32 crc, present exactly when a game carries
   parameter bytes — parameterless headers (every pre-params store)
   keep their 24 bytes untouched *)
let test_params_header_contract () =
  let with_params =
    { Layout.n = 5;
      content = Layout.Game { tag = 5; union = true; params = "k=2" };
      chunk_size = 8;
      shard = None }
  in
  let enc = Layout.encode_header with_params in
  check_int "extended length" (Layout.header_size + 2 + 3 + 4) (String.length enc);
  check_int "header_bytes agrees" (String.length enc) (Layout.header_bytes with_params);
  check_bool "has_params peek" true (Layout.header_has_params enc);
  let dec = Layout.decode_header enc in
  check_bool "params roundtrip" true (dec.Layout.content = with_params.Layout.content);
  check_int "n" 5 dec.Layout.n;
  (* parameterless game and classic headers: no section, no bit, 24 bytes *)
  List.iter
    (fun content ->
      let h = { Layout.n = 5; content; chunk_size = 8; shard = None } in
      let s = Layout.encode_header h in
      check_int "fixed length" Layout.header_size (String.length s);
      check_int "header_bytes fixed" Layout.header_size (Layout.header_bytes h);
      check_bool "no params peek" false (Layout.header_has_params s))
    [ Layout.Game { tag = 4; union = false; params = "" }; Layout.classic ~with_ucg:true ];
  (* corruption: a flipped parameter byte, a truncated section, and a
     zero-length section are each Corrupt, never silently empty *)
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    Bytes.to_string b
  in
  raises_corrupt "flipped param byte" (fun () ->
      Layout.decode_header (flip enc (Layout.header_size + 2)));
  raises_corrupt "flipped param length" (fun () ->
      Layout.decode_header (flip enc Layout.header_size));
  raises_corrupt "section truncated" (fun () ->
      Layout.decode_header (String.sub enc 0 Layout.header_size));
  raises_corrupt "empty section" (fun () ->
      Layout.decode_header (String.sub enc 0 Layout.header_size ^ "\x00\x00"));
  (* registry schema identity: the build layer encodes exactly the
     instance's parameter bytes and resolves them back to the instance *)
  let coalition = Build.content_of_game "coalition:k=2" in
  check_bool "coalition content" true
    (coalition = Layout.Game { tag = 5; union = true; params = "k=2" });
  check_string "coalition name back" "coalition:k=2" (Build.game_of_content coalition);
  check_bool "adversary parameterless" true
    (Build.content_of_game "adversary" = Layout.Game { tag = 4; union = false; params = "" })

let sample_records with_ucg =
  let mk g bcg ucg =
    { Layout.graph6 = Graph6.encode g;
      bcg;
      ucg = (if with_ucg then Some ucg else None) }
  in
  let path4 = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let k3 = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  [|
    mk path4 Interval.empty Interval.Union.empty;
    mk k3
      (Interval.make ~lo:(Interval.Finite (Rat.make 1 2)) ~lo_closed:true
         ~hi:(Interval.Finite (Rat.of_int 3)) ~hi_closed:false)
      (Interval.Union.of_list
         [
           Interval.make ~lo:(Interval.Finite Rat.zero) ~lo_closed:false
             ~hi:(Interval.Finite Rat.one) ~hi_closed:true;
           Interval.make ~lo:(Interval.Finite (Rat.of_int 5)) ~lo_closed:true ~hi:Interval.Pos_inf
             ~hi_closed:false;
         ]);
    mk (Graph.empty 1)
      (Interval.make ~lo:Interval.Neg_inf ~lo_closed:false ~hi:Interval.Pos_inf ~hi_closed:false)
      (Interval.Union.of_list
         [ Interval.make ~lo:(Interval.Finite (Rat.make (-7) 3)) ~lo_closed:true
             ~hi:(Interval.Finite (Rat.make (-1) 3)) ~hi_closed:true ]);
  |]

let check_records_equal expected actual =
  check_int "record count" (Array.length expected) (Array.length actual);
  Array.iteri
    (fun k e ->
      let a = actual.(k) in
      check_string "graph6" e.Layout.graph6 a.Layout.graph6;
      Alcotest.check interval "bcg" e.Layout.bcg a.Layout.bcg;
      match (e.Layout.ucg, a.Layout.ucg) with
      | None, None -> ()
      | Some u, Some v -> check_bool "ucg" true (Interval.Union.equal u v)
      | _ -> Alcotest.fail "ucg presence mismatch")
    expected

let test_chunk_roundtrip () =
  List.iter
    (fun with_ucg ->
      let content = Layout.classic ~with_ucg in
      let records = sample_records with_ucg in
      let frame = Layout.encode_chunk ~index:3 ~content records in
      let index, records', next = Layout.decode_chunk ~content frame ~pos:0 in
      check_int "index" 3 index;
      check_int "frame consumed" (String.length frame) next;
      check_records_equal records records')
    [ false; true ];
  (* game-store contents reuse the same record bodies: an interval-game
     chunk is byte-identical to a classic no-ucg chunk over the same
     records, a union-game chunk carries only the union *)
  let interval_game = Layout.Game { tag = 2; union = false; params = "" } in
  check_string "interval-game frame = classic frame"
    (Layout.encode_chunk ~index:0 ~content:(Layout.classic ~with_ucg:false)
       (sample_records false))
    (Layout.encode_chunk ~index:0 ~content:interval_game (sample_records false));
  let union_game = Layout.Game { tag = 9; union = true; params = "" } in
  let union_records =
    Array.map (fun r -> { r with Layout.bcg = Interval.empty }) (sample_records true)
  in
  let frame = Layout.encode_chunk ~index:1 ~content:union_game union_records in
  let _, records', _ = Layout.decode_chunk ~content:union_game frame ~pos:0 in
  check_records_equal union_records records';
  (* records must agree with the header's content *)
  raises_invalid "ucg payload contradicts flag" (fun () ->
      Layout.encode_chunk ~index:0 ~content:(Layout.classic ~with_ucg:false)
        (sample_records true));
  raises_invalid "union payload contradicts interval-game content" (fun () ->
      Layout.encode_chunk ~index:0 ~content:interval_game (sample_records true));
  raises_invalid "missing union payload in union-game content" (fun () ->
      Layout.encode_chunk ~index:0 ~content:union_game (sample_records false))

let test_footer_roundtrip () =
  let s = Layout.encode_footer ~chunks:7 ~records:1044 in
  check_int "footer size" Layout.footer_size (String.length s);
  let chunks, records, next = Layout.decode_footer s ~pos:0 in
  check_int "chunks" 7 chunks;
  check_int "records" 1044 records;
  check_int "consumed" Layout.footer_size next;
  raises_corrupt "a chunk frame is not a footer" (fun () ->
      Layout.decode_footer (Layout.chunk_magic ^ String.sub s 4 12) ~pos:0)

(* --- build / load round trip ------------------------------------------- *)

let test_build_roundtrip () =
  with_store 5 (fun path outcome ->
      check_int "all classes" 21 outcome.Build.records;
      check_int "chunk fan-out" 6 outcome.Build.chunks;
      check_int "fresh build resumes nothing" 0 outcome.Build.resumed_records;
      let service = Service.create ~path () in
      check_int "n" 5 (Service.n service);
      check_bool "ucg present" true
        (Layout.content_with_ucg (Mmap_reader.content (Service.store service)));
      check_int "length" 21 (Service.length service);
      (* entries decode back to the classes they name *)
      let m = Service.store service in
      for i = 0 to Mmap_reader.length m - 1 do
        let r = Mmap_reader.record m i in
        check_string "graph6" r.Layout.graph6 (Graph6.encode (Graph6.decode r.Layout.graph6))
      done)

let test_build_guards () =
  raises_invalid "n too large" (fun () -> Build.build ~path:"/tmp/never.nfs" ~n:12 ());
  raises_invalid "chunk < 1" (fun () -> Build.build ~chunk:0 ~path:"/tmp/never.nfs" ~n:4 ());
  with_store 4 (fun path _ ->
      check_bool "existing path refused" true
        (match Build.build ~path ~n:4 () with exception Failure _ -> true | _ -> false);
      (* --force overwrites *)
      let outcome = Build.build ~force:true ~path ~n:4 () in
      check_int "rebuilt" 6 outcome.Build.records)

let test_resume_nothing () =
  check_bool "no part file" true
    (match Build.resume ~path:"/tmp/nf_store_absent.nfs" () with
    | exception Failure _ -> true
    | _ -> false)

(* --- scan / verify / corruption ---------------------------------------- *)

let incomplete ~records ~chunks =
  Printf.sprintf "incomplete store (%d records in %d complete chunks; resume the build)" records
    chunks

let test_scan_tolerates_truncation () =
  with_store 5 (fun path _ ->
      let bytes = read_file path in
      let full = Reader.scan ~path in
      check_bool "full store complete" true (full.Reader.failure = None);
      check_int "full records" 21 full.Reader.records;
      (* any truncation strictly inside the data yields a valid,
         incomplete prefix with only whole chunks, and says so *)
      let len = String.length bytes in
      let part = Writer.part_path path in
      for cut = Layout.header_size to len - 1 do
        write_file part (String.sub bytes 0 cut);
        let scan = Reader.scan ~path:part in
        check_bool "prefix within cut" true (scan.Reader.data_end <= cut);
        check_bool "chunk prefix" true (scan.Reader.chunks <= full.Reader.chunks);
        Alcotest.(check (option string))
          "truncated is incomplete"
          (Some (incomplete ~records:scan.Reader.records ~chunks:scan.Reader.chunks))
          scan.Reader.failure
      done;
      (* loading an incomplete store must fail loudly *)
      write_file part (String.sub bytes 0 (len - 1));
      raises_corrupt "open incomplete" (fun () -> Service.create ~path:part ()))

let test_verify_detects_any_flip () =
  with_store 4 ~chunk:2 (fun path _ ->
      let bytes = read_file path in
      (match Reader.verify ~path with
      | Ok scan ->
        check_bool "intact verifies" true (scan.Reader.failure = None);
        check_int "intact records" 6 scan.Reader.records
      | Error msg -> Alcotest.failf "intact store rejected: %s" msg);
      (* a single flipped bit anywhere in the file must be caught *)
      let corrupted = Bytes.of_string bytes in
      for k = 0 to Bytes.length corrupted - 1 do
        let orig = Bytes.get corrupted k in
        Bytes.set corrupted k (Char.chr (Char.code orig lxor 0x01));
        write_file path (Bytes.to_string corrupted);
        (match Reader.verify ~path with
        | Ok _ -> Alcotest.failf "flip at byte %d not detected" k
        | Error _ -> ());
        Bytes.set corrupted k orig
      done)

let test_verify_rejects_trailing_garbage () =
  with_store 4 (fun path _ ->
      write_file path (read_file path ^ "x");
      match Reader.verify ~path with
      | Ok _ -> Alcotest.fail "trailing garbage not detected"
      | Error msg ->
        check_bool (Printf.sprintf "%S names the trailing byte" msg) true
          (String.ends_with ~suffix:"1 trailing bytes after footer" msg))

(* Forgeries the frame CRCs cannot see: set a field, then recompute the
   CRC over the [len] bytes from [pos] that covers it.  Either step is
   skipped where it would fall outside the bytes. *)
let set_u32 b at v =
  if at >= 0 && at + 4 <= Bytes.length b then Bytes.set_int32_le b at (Int32.of_int v)

let recrc b ~pos ~len =
  if pos >= 0 && pos + len + 4 <= Bytes.length b then
    Bytes.set_int32_le b (pos + len) (Int32.of_int (Crc32.sub (Bytes.to_string b) ~pos ~len))

let body_len_at b pos = Int32.to_int (Bytes.get_int32_le b (pos + 12)) land 0xFFFFFFFF

(* the chunk frame at [at] with its record count forged to [v] *)
let forge_count s ~at v =
  let b = Bytes.of_string s in
  set_u32 b (at + 8) v;
  recrc b ~pos:at ~len:(Layout.chunk_header_size + body_len_at b at);
  Bytes.to_string b

(* a record count its body cannot hold is refused before anything is
   sized by it, even with the chunk CRC recomputed: decode_chunk pins
   the count, verify pins the frame *)
let test_forged_record_count () =
  with_store ~chunk:512 4 (fun path _ ->
      let bytes = read_file path in
      check_int "the 476-byte n = 4 store" 476 (String.length bytes);
      let at = Layout.header_size in
      let body = body_len_at (Bytes.of_string bytes) at in
      let forged = forge_count bytes ~at 0x7fffffff in
      let reason =
        Printf.sprintf "chunk 0 declares 2147483647 records, more than its %d-byte body can hold"
          body
      in
      check_string "decode_chunk refuses" reason
        (match Layout.decode_chunk ~content:(Layout.classic ~with_ucg:true) forged ~pos:at with
        | exception Layout.Corrupt msg -> msg
        | _ -> "decoded");
      write_file path forged;
      check_bool "verify pins the frame" true
        (Reader.verify ~path = Error (Printf.sprintf "chunk 0 (frame at byte %d): %s" at reason)))

(* the CLI on a truncated store: verify and shards both exit 1 with the
   incomplete-store text (shards used to call it whole), and a forged
   count is an ordinary CORRUPT verdict, not an uncaught exception *)
let run_cli args =
  let cli =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/netform_cli.exe"
  in
  let log = Filename.temp_file "nf_store_cli" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let status =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote log))
      in
      (status, String.trim (read_file log)))

let test_cli_truncated_store () =
  with_store 5 (fun path _ ->
      let bytes = read_file path in
      let header = Layout.decode_header bytes in
      let _, _, chunk1 = Layout.decode_chunk ~content:header.Layout.content bytes ~pos:24 in
      write_file path (String.sub bytes 0 (chunk1 + 5));
      let reason = incomplete ~records:4 ~chunks:1 in
      let check what args expected =
        Alcotest.(check (pair int string)) what (1, expected) (run_cli ("store" :: args))
      in
      check "verify" [ "verify"; path ] (Printf.sprintf "%s: CORRUPT: %s" path reason);
      check "shards" [ "shards"; path ] (Printf.sprintf "%s: %s" path reason);
      write_file path (forge_count bytes ~at:24 0x7fffffff);
      check_int "forged count verify exit" 1 (fst (run_cli [ "store"; "verify"; path ])))

(* --- crash-resume byte parity ------------------------------------------ *)

let test_resume_byte_parity () =
  with_store 5 (fun path _ ->
      let pristine = read_file path in
      let len = String.length pristine in
      (* cut points: just past the header, inside the first chunk, at a
         chunk boundary (the scan of a 2/3 cut lands on one), and one
         byte short of complete *)
      List.iter
        (fun cut ->
          let resumed_path = temp_store () in
          Fun.protect
            ~finally:(fun () -> cleanup resumed_path)
            (fun () ->
              write_file (Writer.part_path resumed_path) (String.sub pristine 0 cut);
              let outcome = Build.resume ~path:resumed_path () in
              check_int "all records present" 21 outcome.Build.records;
              check_bool "carry-over consistent" true
                (outcome.Build.resumed_records >= 0
                && outcome.Build.resumed_records <= 21);
              check_string "byte identical" pristine (read_file resumed_path)))
        [ Layout.header_size; Layout.header_size + 7; len / 3; 2 * len / 3; len - 1 ])

let test_resume_after_kill_mid_chunk () =
  (* interrupting an actual writer (not a synthetic truncation): abort
     after two chunks, then resume and compare against an uninterrupted
     build *)
  with_store 5 (fun path _ ->
      let pristine = read_file path in
      let resumed_path = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup resumed_path)
        (fun () ->
          let header =
            { Layout.n = 5; content = Layout.classic ~with_ucg:true; chunk_size = 4; shard = None }
          in
          let w = Writer.create ~path:resumed_path ~header in
          (* replay the first two pristine chunks through the writer, then
             simulate a crash by appending half a torn frame *)
          let pos = ref Layout.header_size in
          for _ = 1 to 2 do
            let _, records, next =
              Layout.decode_chunk ~content:(Layout.classic ~with_ucg:true) pristine ~pos:!pos
            in
            ignore records;
            pos := next
          done;
          Writer.abort w;
          let part = Writer.part_path resumed_path in
          write_file part (String.sub pristine 0 !pos ^ "CHNK\x02\x00\x00\x00torn");
          let outcome = Build.resume ~path:resumed_path () in
          check_int "resumed two chunks" 8 outcome.Build.resumed_records;
          check_string "byte identical" pristine (read_file resumed_path)))

let test_build_parity_across_jobs () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      let build_with jobs =
        Pool.set_default_jobs jobs;
        with_store 5 (fun path _ -> read_file path)
      in
      check_string "jobs=1 vs jobs=4" (build_with 1) (build_with 4))

(* --- query / export parity --------------------------------------------- *)

(* A store and a fresh source of the same content answer alike: the
   per-game rows of test_differential.ml compare their folds, stable
   sets, atlas CSVs and figure CSVs for every registered game.  Here:
   the classic store against the per-game annotation lists, its atlas
   CSV, and its own figure. *)

let test_query_parity () =
  with_store 5 (fun path _ ->
      let source = Service.source (Service.create ~path ()) in
      let stable_in annotated alpha mem =
        List.filter_map (fun (g, region) -> if mem alpha region then Some g else None) annotated
      in
      let bcg = Nf_analysis.Equilibria.bcg_annotated 5 in
      let ucg = Nf_analysis.Equilibria.ucg_annotated 5 in
      List.iter
        (fun alpha ->
          Alcotest.check (Alcotest.list graph) "bcg stable"
            (stable_in bcg alpha Interval.mem)
            (Source.stable source ~game:"bcg" ~alpha);
          Alcotest.check (Alcotest.list graph) "ucg nash"
            (stable_in ucg alpha Interval.Union.mem)
            (Source.stable source ~game:"ucg" ~alpha))
        [ Rat.make 1 2; Rat.one; Rat.of_int 2; Rat.of_int 8 ])

let test_figure_points_parity () =
  with_store 5 (fun path _ ->
      let grid = [ Rat.make 1 2; Rat.of_int 2; Rat.of_int 8 ] in
      let service = Service.create ~path () in
      match Figures.figure ~grid (Service.source service) with
      | Figures.Pair points ->
        check_int "points" 3 (List.length points);
        check_string "figure csv" (Figures.to_csv points) (Service.figure_csv service ~grid ())
      | Figures.Single _ -> Alcotest.fail "dual store swept as a single game")

let test_export_csv_identical () =
  with_store 5 (fun path _ ->
      check_string "csv byte-identical"
        (Nf_analysis.Dataset.to_csv (Source.classic 5))
        (Nf_analysis.Dataset.to_csv (Service.source (Service.create ~path ()))))

let test_query_without_ucg () =
  with_store ~with_ucg:false 5 (fun path _ ->
      let service = Service.create ~path () in
      check_bool "no ucg stored" false
        (Layout.content_with_ucg (Mmap_reader.content (Service.store service)));
      let source = Service.source service in
      check_bool "bcg still served" true
        (Source.stable source ~game:"bcg" ~alpha:(Rat.of_int 2) <> []);
      raises_invalid "nash query refused" (fun () ->
          Source.stable source ~game:"ucg" ~alpha:(Rat.of_int 2));
      raises_invalid "nash source refused" (fun () -> Service.source ~game:"ucg" service);
      check_bool "figures sweep the one game" true
        (match Figures.figure source with Figures.Single _ -> true | Figures.Pair _ -> false))

(* --- golden bytes (pre-refactor compatibility) -------------------------- *)

(* MD5 digests of n=4 chunk=2 stores captured from the pre-game-registry
   implementation.  The game abstraction must not move a single byte of
   the classic NFATLAS1 format, and building BCG/UCG stores through the
   registry's --game route must hit the same bytes. *)
let golden_bcg_md5 = "dacb7cd89db604b60b7c5ee8bf9a3518"
let golden_dual_md5 = "b961d46128d3c3a318431b64af7a09cd"

let file_md5 path = Digest.to_hex (Digest.file path)

let test_golden_store_bytes () =
  with_store ~with_ucg:false ~chunk:2 4 (fun path _ ->
      check_string "classic bcg-only store" golden_bcg_md5 (file_md5 path));
  with_store ~with_ucg:true ~chunk:2 4 (fun path outcome ->
      check_string "classic dual store" golden_dual_md5 (file_md5 path);
      check_string "outcome game" "ucg" outcome.Build.game)

let with_game_store ~game ?(chunk = 4) n f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let outcome = Build.build ~game ~chunk ~path ~n () in
      f path outcome)

let test_golden_game_route () =
  with_game_store ~game:"bcg" ~chunk:2 4 (fun path _ ->
      check_string "--game bcg = classic bytes" golden_bcg_md5 (file_md5 path));
  with_game_store ~game:"ucg" ~chunk:2 4 (fun path _ ->
      check_string "--game ucg = classic bytes" golden_dual_md5 (file_md5 path))

(* the pre-refactor n=4 dual-annotation CSV, verbatim *)
let golden_csv =
  "graph6,n,m,bcg_stable,ucg_nash\n\
   Cs,4,3,[1;inf),[1;inf)\n\
   Cq,4,3,[2;inf),[2;inf)\n\
   C{,4,4,[1;1],[1;1]\n\
   Cr,4,4,[1;2],[1;2]\n\
   C},4,5,[1;1],[1;1]\n\
   C~,4,6,(0;1],(0;1]\n"

let test_golden_csv () =
  check_string "dataset csv" golden_csv (Nf_analysis.Dataset.to_csv (Source.classic 4))

(* transfers regions at n=4 captured pre-refactor (the transfers
   annotator predates the registry; its output must not move either) *)
let test_golden_transfers_regions () =
  let expected =
    [ ("Cs", "[1, +inf)"); ("Cq", "[2, +inf)"); ("C{", "[1, 1]"); ("Cr", "[1, 2]");
      ("C}", "[1, 1]"); ("C~", "(0, 1]") ]
  in
  let actual =
    List.rev
      (Source.fold (Source.of_game "transfers" 4)
         (fun acc g r -> (Graph6.encode g, Interval.to_string r.Layout.bcg) :: acc)
         [])
  in
  List.iter2
    (fun (g, r) (g', r') ->
      check_string "graph" g g';
      check_string "region" r r')
    expected actual

(* --- single-game stores -------------------------------------------------- *)

let test_game_store_roundtrip () =
  List.iter
    (fun game ->
      with_game_store ~game 5 (fun path outcome ->
          check_string "outcome game" game outcome.Build.game;
          check_int "all classes" 21 outcome.Build.records;
          (match Reader.verify ~path with
          | Ok scan -> check_bool "verifies" true (scan.Reader.failure = None)
          | Error msg -> Alcotest.failf "game store rejected: %s" msg);
          let service = Service.create ~path () in
          check_string "service game" game (Service.game service);
          check_bool "no classic ucg payload claim" true
            (Layout.content_with_ucg (Mmap_reader.content (Service.store service)) = (game = "ucg"))))
    [ "bcg"; "ucg"; "transfers"; "weighted_bcg"; "adversary"; "coalition:k=2" ]

(* the rejection text is pinned: it names the store's game and the one
   asked for *)
let test_game_store_mismatch_rejected () =
  let rejects service ~game expected =
    check_string
      (Printf.sprintf "%s refused" game)
      expected
      (match Service.stable_ids service ~game ~alpha:Rat.one with
      | exception Invalid_argument msg -> msg
      | _ -> "no rejection")
  in
  with_game_store ~game:"transfers" 4 (fun path _ ->
      let service = Service.create ~path () in
      rejects service ~game:"weighted_bcg"
        {|store carries "transfers" annotations, not "weighted_bcg"|};
      rejects service ~game:"ucg" {|store carries "transfers" annotations, not "ucg"|};
      rejects service ~game:"nope" {|store carries "transfers" annotations, not "nope"|});
  (* parameter bytes are part of the schema identity: same family,
     different member must be refused like any other game mismatch *)
  with_game_store ~game:"coalition:k=2" 4 (fun path _ ->
      let service = Service.create ~path () in
      rejects service ~game:"coalition:k=3"
        {|store carries "coalition:k=2" annotations, not "coalition:k=3"|};
      rejects service ~game:"bcg" {|store carries "coalition:k=2" annotations, not "bcg"|});
  with_store ~with_ucg:false 4 (fun path _ ->
      rejects (Service.create ~path ()) ~game:"ucg" {|store carries "bcg" annotations, not "ucg"|})

let test_game_store_resume_parity () =
  with_game_store ~game:"weighted_bcg" ~chunk:4 5 (fun path _ ->
      let pristine = read_file path in
      let resumed_path = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup resumed_path)
        (fun () ->
          (* the resume annotator is reconstructed from the header's
             schema tag alone — cut inside the data and replay *)
          write_file
            (Writer.part_path resumed_path)
            (String.sub pristine 0 (String.length pristine / 2));
          let outcome = Build.resume ~path:resumed_path () in
          check_string "resumed game" "weighted_bcg" outcome.Build.game;
          check_string "byte identical" pristine (read_file resumed_path)))

let test_game_figure_points () =
  with_game_store ~game:"transfers" 5 (fun path _ ->
      let grid = [ Rat.make 1 2; Rat.of_int 2; Rat.of_int 8 ] in
      match Figures.figure ~grid (Service.source (Service.create ~path ())) with
      | Figures.Single points ->
        check_int "points" 3 (List.length points);
        check_bool "the store's game" true
          (List.for_all (fun p -> p.Figures.game = "transfers") points)
      | Figures.Pair _ -> Alcotest.fail "game store swept as the classic pair")

(* --- sharded builds / merge ---------------------------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "nf_store_shards" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let build_shards ~dir ?game ?with_ucg ?(chunk = 4) ~k n =
  List.init k (fun j ->
      let path = Filename.concat dir (Printf.sprintf "shard_%02d_of_%02d.nfs" (j + 1) k) in
      Build.build ?game ?with_ucg ~shard:(j + 1, k) ~chunk ~path ~n ())

let test_shard_build_guards () =
  raises_invalid "index zero" (fun () -> Build.build ~shard:(0, 3) ~path:"/tmp/never.nfs" ~n:4 ());
  raises_invalid "index above count" (fun () ->
      Build.build ~shard:(4, 3) ~path:"/tmp/never.nfs" ~n:4 ());
  raises_invalid "count above max" (fun () ->
      Build.build ~shard:(1, 17) ~path:"/tmp/never.nfs" ~n:4 ())

(* --shard 1/1 IS the unsharded build: same bytes, unsharded header *)
let test_shard_one_way_byte_parity () =
  with_store ~chunk:4 5 (fun whole _ ->
      let pristine = read_file whole in
      let path = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          let outcome = Build.build ~shard:(1, 1) ~chunk:4 ~path ~n:5 () in
          check_bool "outcome unsharded" true (outcome.Build.shard = None);
          check_string "bytes identical" pristine (read_file path);
          check_bool "header unsharded" true
            ((Reader.scan ~path).Reader.header.Layout.shard = None)))

(* the tentpole acceptance: k shard volumes, built independently, merge
   into bytes identical to a single-process build — classic and game
   stores alike *)
let test_shard_merge_byte_parity () =
  List.iter
    (fun (game, k) ->
      let build_whole path =
        ignore (Build.build ?game ~chunk:4 ~path ~n:5 ())
      in
      let whole = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup whole)
        (fun () ->
          build_whole whole;
          let pristine = read_file whole in
          with_temp_dir (fun dir ->
              let outcomes = build_shards ~dir ?game ~k 5 in
              check_int "records partition" 21
                (List.fold_left (fun acc o -> acc + o.Build.records) 0 outcomes);
              List.iteri
                (fun j o -> check_bool "shard recorded" true (o.Build.shard = Some (j + 1, k)))
                outcomes;
              let out = Filename.concat dir "merged.nfs" in
              let m = Merge.merge_dir ~dir ~out () in
              check_int "merged shards" k m.Merge.shards;
              check_int "merged records" 21 m.Merge.records;
              check_string "merge byte-identical to single-process build" pristine
                (read_file out))))
    [ (None, 3); (None, 5); (Some "transfers", 3) ]

(* a directory of shard volumes opens and queries as the merged store *)
let test_shard_directory_index_query () =
  with_temp_dir (fun dir ->
      ignore (build_shards ~dir ~k:3 5);
      let from_dir = Service.create ~path:dir () in
      check_int "all classes" 21 (Service.length from_dir);
      check_bool "reads as whole" true
        ((Mmap_reader.header (Service.store from_dir)).Layout.shard = None);
      check_int "n" 5 (Service.n from_dir);
      let out = Filename.concat dir "merged.nfs" in
      ignore (Merge.merge_dir ~dir ~out ());
      let merged = Service.create ~path:out () in
      let merged = Service.source merged and from_dir = Service.source from_dir in
      check_string "directory query = merged query" (Nf_analysis.Dataset.to_csv merged)
        (Nf_analysis.Dataset.to_csv from_dir);
      List.iter
        (fun alpha ->
          Alcotest.check (Alcotest.list graph) "alpha parity"
            (Source.stable merged ~game:"bcg" ~alpha)
            (Source.stable from_dir ~game:"bcg" ~alpha))
        [ Rat.make 1 2; Rat.one; Rat.of_int 2 ];
      (* one volume alone still opens, and owns up to being a slice *)
      let one = Service.create ~path:(Filename.concat dir "shard_02_of_03.nfs") () in
      check_bool "volume shard" true
        ((Mmap_reader.header (Service.store one)).Layout.shard = Some (2, 3));
      check_bool "volume is a strict slice" true (Service.length one < 21))

(* Reader.verify on a damaged shard volume pins the offending chunk and
   the byte offset its frame starts at *)
let test_verify_damaged_shard_message () =
  with_temp_dir (fun dir ->
      let o2 =
        match build_shards ~dir ~k:3 5 with [ _; o2; _ ] -> o2 | _ -> assert false
      in
      let path = o2.Build.path in
      let bytes = read_file path in
      (* locate chunk 1's frame: decode chunk 0 and take its end *)
      let header = Layout.decode_header bytes in
      let _, _, chunk1_start =
        Layout.decode_chunk ~content:header.Layout.content bytes ~pos:Layout.header_size
      in
      let damaged = Bytes.of_string bytes in
      let at = chunk1_start + Layout.chunk_header_size + 2 in
      Bytes.set damaged at (Char.chr (Char.code (Bytes.get damaged at) lxor 0x40));
      write_file path (Bytes.to_string damaged);
      (match Reader.verify ~path with
      | Ok _ -> Alcotest.fail "damaged shard verified"
      | Error msg ->
        let expected = Printf.sprintf "chunk 1 (frame at byte %d):" chunk1_start in
        check_bool
          (Printf.sprintf "message %S pins %S" msg expected)
          true
          (String.length msg >= String.length expected
          && String.sub msg 0 (String.length expected) = expected));
      (* a merge must refuse the damaged family, naming the volume *)
      check_bool "merge refuses damaged volume" true
        (match Merge.merge_dir ~dir ~out:(Filename.concat dir "m.nfs") () with
        | exception Failure msg ->
          let rec contains i =
            i + String.length path <= String.length msg
            && (String.sub msg i (String.length path) = path || contains (i + 1))
          in
          contains 0
        | _ -> false))

(* a volume whose header carries the magic but fails to decode is an
   error naming it — in the directory scan, the merge and the shard
   directory read path — while files without the magic are skipped *)
let test_damaged_header_named () =
  with_temp_dir (fun dir ->
      let p2 =
        match build_shards ~dir ~k:2 5 with [ _; o2 ] -> o2.Build.path | _ -> assert false
      in
      write_file (Filename.concat dir "README") "not a store";
      write_file (Filename.concat dir "empty") "";
      check_int "non-stores skipped" 2 (List.length (Merge.volumes ~dir));
      let bytes = Bytes.of_string (read_file p2) in
      Bytes.set bytes 15 (Char.chr (Char.code (Bytes.get bytes 15) lxor 0x01));
      write_file p2 (Bytes.to_string bytes);
      let prefix = Printf.sprintf "Merge: %s: header crc mismatch" p2 in
      let out = Filename.concat dir "m.nfs" in
      List.iter
        (fun (what, f) ->
          match f () with
          | exception Failure msg ->
            check_bool (Printf.sprintf "%s: %S" what msg) true (String.starts_with ~prefix msg)
          | _ -> Alcotest.failf "%s accepted a damaged header" what)
        [
          ("volumes", fun () -> ignore (Merge.volumes ~dir));
          ("merge_dir", fun () -> ignore (Merge.merge_dir ~dir ~out ()));
          ("merge paths", fun () -> ignore (Merge.merge ~paths:[ p2 ] ~out ()));
          ("shard directory", fun () -> ignore (Service.create ~path:dir ()));
        ];
      check_bool "explicit non-store path refused" true
        (match Merge.merge ~paths:[ Filename.concat dir "README" ] ~out () with
        | exception Failure msg -> String.ends_with ~suffix:"is not an NFATLAS1 store" msg
        | _ -> false))

let test_merge_validation () =
  with_temp_dir (fun dir ->
      let outcomes = build_shards ~dir ~k:3 5 in
      let paths = List.map (fun o -> o.Build.path) outcomes in
      let out = Filename.concat dir "out.nfs" in
      let fails what ps =
        check_bool what true
          (match Merge.merge ~paths:ps ~out () with exception Failure _ -> true | _ -> false)
      in
      (match paths with
      | [ p1; p2; p3 ] ->
        fails "missing shard" [ p1; p3 ];
        fails "duplicate shard" [ p1; p2; p2 ];
        fails "no volumes" [];
        (* a foreign family member: same split but different chunk size *)
        let alien = Filename.concat dir "alien.nfs" in
        ignore (Build.build ~shard:(3, 3) ~chunk:2 ~path:alien ~n:5 ());
        fails "mixed chunk size" [ p1; p2; alien ];
        Sys.remove alien;
        (* an unsharded store is not a shard volume *)
        let whole = Filename.concat dir "whole.nfs" in
        ignore (Build.build ~chunk:4 ~path:whole ~n:5 ());
        fails "unsharded input" [ p1; p2; whole ];
        Sys.remove whole;
        ignore (Merge.merge ~paths ~out ());
        fails "existing output refused" paths;
        ignore (Merge.merge ~force:true ~paths ~out ())
      | _ -> Alcotest.fail "expected 3 shards"))

(* the merge — one chunk resident at a time — emits the single-process
   build's bytes and one report line per volume, in shard order *)
let test_streaming_merge_byte_parity () =
  List.iter
    (fun game ->
      let whole = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup whole)
        (fun () ->
          ignore (Build.build ?game ~chunk:4 ~path:whole ~n:5 ());
          with_temp_dir (fun dir ->
              let outcomes = build_shards ~dir ?game ~k:3 5 in
              let out = Filename.concat dir "merged.nfs" in
              let lines = ref [] in
              let m = Merge.merge_dir ~report:(fun l -> lines := l :: !lines) ~dir ~out () in
              check_int "records" 21 m.Merge.records;
              check_string "merge byte-identical to single-process build" (read_file whole)
                (read_file out);
              Alcotest.(check (list string))
                "report lines"
                (List.map
                   (fun o -> Printf.sprintf "%s: %d records folded in" o.Build.path o.Build.records)
                   outcomes)
                (List.rev !lines))))
    [ None; Some "transfers"; Some "ucg" ]

(* the one walk: Records visits every chunk in order with its decoded
   records, Frames visits the same frames without reading a body, and
   verify is Records plus the record checks — on clean, damaged and
   truncated bytes *)
let test_walk_frames_and_records () =
  with_store ~chunk:4 5 (fun path _ ->
      let walk visit = In_channel.with_open_bin path (fun ic -> Reader.walk ic ~init:[] visit) in
      let records_visit =
        Reader.Records
          (fun h acc frame recs ->
            check_int "callback header n" 5 h.Layout.n;
            check_int "frame count = decoded" frame.Reader.count (Array.length recs);
            frame :: acc)
      in
      let scan, by_records = walk records_visit in
      let scan', by_frames = walk (Reader.Frames (fun acc frame -> frame :: acc)) in
      check_bool "complete" true (scan.Reader.failure = None);
      check_int "records" 21 scan.Reader.records;
      check_bool "same frames" true (by_records = by_frames);
      check_bool "same scan" true (scan = scan');
      let frames = List.rev by_frames in
      check_int "one frame per chunk" scan.Reader.chunks (List.length frames);
      (* the frames tile the data, and first ordinals are running counts *)
      let data_end, _ =
        List.fold_left
          (fun (pos, first) f ->
            check_int "offset" pos f.Reader.offset;
            check_int "first" first f.Reader.first;
            (pos + f.Reader.length, first + f.Reader.count))
          (Layout.header_size, 0) frames
      in
      let pristine = read_file path in
      check_int "data_end" (String.length pristine - Layout.footer_size) data_end;
      check_int "scan data_end" data_end scan.Reader.data_end;
      (match Reader.verify ~path with
      | Ok v -> check_bool "verify = walk" true (v = scan)
      | Error msg -> Alcotest.failf "clean store failed verification: %s" msg);
      (* a flipped body byte stops Records and verify at chunk 0, pinned
         to its frame; Frames never reads the body *)
      let at = Layout.header_size + Layout.chunk_header_size + 1 in
      let damaged = Bytes.of_string pristine in
      Bytes.set damaged at (Char.chr (Char.code (Bytes.get damaged at) lxor 0x10));
      write_file path (Bytes.to_string damaged);
      let pinned = "chunk 0 (frame at byte 24): chunk 0 crc mismatch" in
      let stopped, visited = walk records_visit in
      check_bool "nothing visited" true (visited = []);
      check_int "empty prefix" Layout.header_size stopped.Reader.data_end;
      check_bool "walk pins chunk 0" true
        (Option.fold ~none:false ~some:(String.starts_with ~prefix:pinned) stopped.Reader.failure);
      check_bool "verify pins chunk 0" true
        (match Reader.verify ~path with
        | Error msg -> String.starts_with ~prefix:pinned msg
        | Ok _ -> false);
      let skipped, _ = walk (Reader.Frames (fun acc _ -> acc)) in
      check_bool "frames skip bodies" true (skipped.Reader.failure = None);
      (* truncation is an Error naming the surviving prefix *)
      write_file path (String.sub pristine 0 (String.length pristine - 5));
      check_bool "truncated" true (Reader.verify ~path = Error (incomplete ~records:21 ~chunks:6));
      write_file path pristine)

(* a shard volume crash-resumes byte-identically, like any store: the
   header's shard bits alone reconstruct the slice iterator *)
let test_shard_resume_parity () =
  with_temp_dir (fun dir ->
      let outcomes = build_shards ~dir ~k:3 5 in
      let path = (List.nth outcomes 1).Build.path in
      let pristine = read_file path in
      let resumed_path = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup resumed_path)
        (fun () ->
          write_file
            (Writer.part_path resumed_path)
            (String.sub pristine 0 (String.length pristine / 2));
          let outcome = Build.resume ~path:resumed_path () in
          check_bool "resumed shard" true (outcome.Build.shard = Some (2, 3));
          check_string "byte identical" pristine (read_file resumed_path)))

(* --- writer details ----------------------------------------------------- *)

let test_writer_guards () =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let header =
        { Layout.n = 4; content = Layout.classic ~with_ucg:false; chunk_size = 2; shard = None }
      in
      let w = Writer.create ~path ~header in
      raises_invalid "empty chunk" (fun () -> Writer.append_chunk w [||]);
      Writer.abort w;
      raises_invalid "closed writer" (fun () ->
          Writer.append_chunk w [| { Layout.graph6 = "C~"; bcg = Interval.empty; ucg = None } |]);
      Writer.abort w (* idempotent *))

let test_reopen_complete_refused () =
  with_store 4 (fun path _ ->
      let part = Writer.part_path path in
      write_file part (read_file path);
      raises_invalid "complete part refused" (fun () -> ignore (Writer.reopen ~path)))

(* --- property tests ------------------------------------------------------ *)

let endpoint_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Interval.Neg_inf);
        (1, return Interval.Pos_inf);
        (8, map2 (fun n d -> Interval.Finite (Rat.make n (1 + d))) (int_range (-50) 50) (int_bound 9));
      ])

let interval_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Interval.empty);
        ( 6,
          map
            (fun (lo, hi, lc, hc) -> Interval.make ~lo ~lo_closed:lc ~hi ~hi_closed:hc)
            (quad endpoint_gen endpoint_gen bool bool) );
      ])

let record_arbitrary =
  QCheck.make
    ~print:(fun (seed, n, _) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(triple (int_bound 100_000) (int_range 1 10) (list_size (int_range 0 4) interval_gen))

let prop_chunk_codec_roundtrip =
  QCheck.Test.make ~name:"chunk codec roundtrip" ~count:200 record_arbitrary
    (fun (seed, n, pieces) ->
      let g = Nf_graph.Random_graph.gnp (Nf_util.Prng.create seed) n 0.4 in
      let bcg =
        match pieces with [] -> Interval.empty | i :: _ -> i
      in
      let record =
        { Layout.graph6 = Graph6.encode g; bcg; ucg = Some (Interval.Union.of_list pieces) }
      in
      let content = Layout.classic ~with_ucg:true in
      let frame = Layout.encode_chunk ~index:0 ~content [| record; record |] in
      let _, records, next = Layout.decode_chunk ~content frame ~pos:0 in
      next = String.length frame
      && Array.length records = 2
      && Array.for_all
           (fun r ->
             r.Layout.graph6 = record.Layout.graph6
             && Interval.equal r.Layout.bcg record.Layout.bcg
             && Interval.Union.equal (Option.get r.Layout.ucg) (Option.get record.Layout.ucg))
           records)

let header_gen =
  QCheck.Gen.(
    let content =
      oneof
        [
          map (fun with_ucg -> Layout.classic ~with_ucg) bool;
          map3
            (fun tag union params -> Layout.Game { tag; union; params })
            (int_bound 0xFFFF) bool
            (string_size ~gen:char (int_bound 40));
        ]
    in
    let shard =
      opt (int_range 2 Layout.max_shards >>= fun k -> map (fun i -> (i, k)) (int_range 1 k))
    in
    map
      (fun (n, chunk_size, content, shard) -> { Layout.n; content; chunk_size; shard })
      (quad (int_range 1 62) (int_range 1 100_000) content shard))

(* decode ∘ encode = id on headers, both from the string and through
   the one channel read the walk uses *)
let prop_header_codec_roundtrip =
  QCheck.Test.make ~name:"header codec roundtrip" ~count:200 (QCheck.make header_gen) (fun h ->
      let enc = Layout.encode_header h in
      let path = temp_store () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          write_file path enc;
          Layout.decode_header enc = h && Reader.header ~path = Some h))

(* --- seeded fuzz of the walk ------------------------------------------- *)

type field = Count | Body_len | Index | Footer_chunks | Footer_records | Params_len

type mutation =
  | Flip of int * int  (** byte position, xor mask *)
  | Truncate of int
  | Insert of int * string
  | Forge of field * int * int  (** field, chunk, value; the covering CRC recomputed *)

let show_mutation = function
  | Flip (p, m) -> Printf.sprintf "flip %d ^ %#x" p m
  | Truncate p -> Printf.sprintf "truncate %d" p
  | Insert (p, s) -> Printf.sprintf "insert %d %S" p s
  | Forge (f, c, v) ->
    let name =
      match f with
      | Count -> "count"
      | Body_len -> "body_len"
      | Index -> "index"
      | Footer_chunks -> "footer chunks"
      | Footer_records -> "footer records"
      | Params_len -> "params length"
    in
    Printf.sprintf "forge %s of chunk %d := %d" name c v

let mutation_gen =
  QCheck.Gen.(
    let value =
      oneof
        [ return 0; return 1; return 0x7fffffff; return 0xffffffff; int_bound 64; int_bound 100_000 ]
    in
    frequency
      [
        (3, map2 (fun p m -> Flip (p, 1 + m)) nat (int_bound 254));
        (2, map (fun p -> Truncate p) nat);
        (2, map2 (fun p s -> Insert (p, s)) nat (string_size ~gen:char (int_range 1 8)));
        ( 4,
          map3
            (fun f c v -> Forge (f, c, v))
            (oneofl [ Count; Body_len; Index; Footer_chunks; Footer_records; Params_len ])
            nat value );
      ])

(* [frames] are the pristine store's, so a forgery lands on a real field
   even after an earlier mutation shifted or cut the bytes (or on
   whatever now sits there) *)
let mutate ~frames s mutation =
  let len = String.length s in
  match mutation with
  | Flip (p, m) when len > 0 ->
    let b = Bytes.of_string s in
    let p = p mod len in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor m));
    Bytes.to_string b
  | Flip _ -> s
  | Truncate p -> String.sub s 0 (p mod (len + 1))
  | Insert (p, ins) ->
    let p = p mod (len + 1) in
    String.sub s 0 p ^ ins ^ String.sub s p (len - p)
  | Forge (field, c, v) ->
    let b = Bytes.of_string s in
    (match field with
    | Count | Body_len | Index ->
      let at = frames.(c mod Array.length frames).Reader.offset in
      set_u32 b (at + match field with Index -> 4 | Count -> 8 | _ -> 12) v;
      if at + Layout.chunk_header_size <= len then
        recrc b ~pos:at ~len:(Layout.chunk_header_size + body_len_at b at)
    | Footer_chunks | Footer_records ->
      let at = len - Layout.footer_size in
      set_u32 b (at + if field = Footer_chunks then 4 else 8) v;
      recrc b ~pos:at ~len:12
    | Params_len ->
      let v = v land 0xFFFF in
      if Layout.header_size + 2 <= len then Bytes.set_uint16_le b Layout.header_size v;
      recrc b ~pos:Layout.header_size ~len:(2 + v));
    Bytes.to_string b

(* Every user of the walk, on damaged bytes: verify answers Ok or Error;
   scan, the mmap open + iter and a merge return or raise only
   Layout.Corrupt or Failure — never Out_of_memory, Invalid_argument or
   End_of_file.  Corpus: an n = 5 classic store, a coalition:k=2 store
   (params header) and shard 2/2 of an n = 5 split, merged with its
   intact partner. *)
let test_fuzz_walk () =
  with_temp_dir (fun dir ->
      let build name f =
        let path = Filename.concat dir name in
        f path;
        let _, frames =
          In_channel.with_open_bin path (fun ic ->
              Reader.walk ic ~init:[] (Reader.Frames (fun acc f -> f :: acc)))
        in
        (read_file path, Array.of_list (List.rev frames))
      in
      let classic = build "classic.nfs" (fun path -> ignore (Build.build ~chunk:4 ~path ~n:5 ())) in
      let coalition =
        build "coalition.nfs" (fun path ->
            ignore (Build.build ~game:"coalition:k=2" ~chunk:4 ~path ~n:5 ()))
      in
      let shards = build_shards ~dir ~k:2 5 in
      let partner = (List.hd shards).Build.path in
      let shard2 =
        build "shard2.nfs" (fun path -> Sys.rename (List.nth shards 1).Build.path path)
      in
      let corpus = [| (classic, []); (coalition, []); (shard2, [ partner ]) |] in
      let victim = Filename.concat dir "victim.nfs" in
      let out = Filename.concat dir "merged.nfs" in
      let case =
        QCheck.make
          ~print:(fun (which, ms) ->
            Printf.sprintf "corpus %d: %s" (which mod 3)
              (String.concat "; " (List.map show_mutation ms)))
          QCheck.Gen.(pair nat (list_size (int_range 1 3) mutation_gen))
      in
      let prop (which, mutations) =
        let (pristine, frames), partners = corpus.(which mod Array.length corpus) in
        write_file victim (List.fold_left (mutate ~frames) pristine mutations);
        let tolerated what f =
          match f () with
          | () -> ()
          | exception (Layout.Corrupt _ | Failure _) -> ()
          | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
        in
        (match Reader.verify ~path:victim with
        | Ok v ->
          (* the users agree on what a verified store holds *)
          if Reader.scan ~path:victim <> v then QCheck.Test.fail_report "scan <> verify";
          if Mmap_reader.length (Mmap_reader.open_store ~path:victim ()) <> v.Reader.records then
            QCheck.Test.fail_report "mmap length <> verify"
        | Error _ -> ()
        | exception e -> QCheck.Test.fail_reportf "verify raised %s" (Printexc.to_string e));
        tolerated "scan" (fun () -> ignore (Reader.scan ~path:victim));
        tolerated "mmap" (fun () ->
            let m = Mmap_reader.open_store ~path:victim () in
            Mmap_reader.iter m (fun _ _ -> ()));
        tolerated "merge" (fun () ->
            ignore (Merge.merge ~force:true ~paths:(partners @ [ victim ]) ~out ()));
        true
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 18 |])
        (QCheck.Test.make ~name:"walk under mutation" ~count:400 case prop))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_store"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "compose" `Quick test_crc32_compose;
        ] );
      ( "layout",
        [
          Alcotest.test_case "header" `Quick test_header_roundtrip;
          Alcotest.test_case "content flags" `Quick test_content_flags_contract;
          Alcotest.test_case "params header" `Quick test_params_header_contract;
          Alcotest.test_case "shard flags" `Quick test_shard_flags_contract;
          Alcotest.test_case "chunk" `Quick test_chunk_roundtrip;
          Alcotest.test_case "footer" `Quick test_footer_roundtrip;
          qcheck prop_chunk_codec_roundtrip;
          qcheck ~rand:(Random.State.make [| 18 |]) prop_header_codec_roundtrip;
        ] );
      ( "build",
        [
          Alcotest.test_case "roundtrip" `Quick test_build_roundtrip;
          Alcotest.test_case "guards" `Quick test_build_guards;
          Alcotest.test_case "resume nothing" `Quick test_resume_nothing;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "scan tolerates truncation" `Quick test_scan_tolerates_truncation;
          Alcotest.test_case "verify detects any flip" `Quick test_verify_detects_any_flip;
          Alcotest.test_case "trailing garbage" `Quick test_verify_rejects_trailing_garbage;
          Alcotest.test_case "forged record count" `Quick test_forged_record_count;
          Alcotest.test_case "cli truncated store" `Quick test_cli_truncated_store;
          Alcotest.test_case "seeded fuzz of the walk" `Quick test_fuzz_walk;
        ] );
      ( "resume",
        [
          Alcotest.test_case "byte parity" `Quick test_resume_byte_parity;
          Alcotest.test_case "kill mid chunk" `Quick test_resume_after_kill_mid_chunk;
          Alcotest.test_case "jobs parity" `Quick test_build_parity_across_jobs;
        ] );
      ( "query",
        [
          Alcotest.test_case "alpha parity" `Quick test_query_parity;
          Alcotest.test_case "figure points" `Quick test_figure_points_parity;
          Alcotest.test_case "csv export" `Quick test_export_csv_identical;
          Alcotest.test_case "without ucg" `Quick test_query_without_ucg;
        ] );
      ( "golden",
        [
          Alcotest.test_case "classic store bytes" `Quick test_golden_store_bytes;
          Alcotest.test_case "game route bytes" `Quick test_golden_game_route;
          Alcotest.test_case "dataset csv" `Quick test_golden_csv;
          Alcotest.test_case "transfers regions" `Quick test_golden_transfers_regions;
        ] );
      ( "game stores",
        [
          Alcotest.test_case "roundtrip" `Quick test_game_store_roundtrip;
          Alcotest.test_case "mismatch rejected" `Quick test_game_store_mismatch_rejected;
          Alcotest.test_case "resume parity" `Quick test_game_store_resume_parity;
          Alcotest.test_case "figure points" `Quick test_game_figure_points;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "build guards" `Quick test_shard_build_guards;
          Alcotest.test_case "1/1 byte parity" `Quick test_shard_one_way_byte_parity;
          Alcotest.test_case "merge byte parity" `Quick test_shard_merge_byte_parity;
          Alcotest.test_case "directory index/query" `Quick test_shard_directory_index_query;
          Alcotest.test_case "damaged shard message" `Quick test_verify_damaged_shard_message;
          Alcotest.test_case "damaged header named" `Quick test_damaged_header_named;
          Alcotest.test_case "merge validation" `Quick test_merge_validation;
          Alcotest.test_case "streaming merge parity" `Quick test_streaming_merge_byte_parity;
          Alcotest.test_case "walk: frames, records, verify" `Quick test_walk_frames_and_records;
          Alcotest.test_case "shard resume parity" `Quick test_shard_resume_parity;
        ] );
      ( "writer",
        [
          Alcotest.test_case "guards" `Quick test_writer_guards;
          Alcotest.test_case "reopen complete" `Quick test_reopen_complete_refused;
        ] );
    ]
