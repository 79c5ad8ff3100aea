(* Tests for nf_serve: the mmap read path vs the channel reader's
   records, the α-interval index vs naive Interval.mem filtering
   (including exact endpoint queries, for every registered game), the
   service against a linear scan and a fresh annotation, incomplete and
   damaged stores, the wire protocol codecs, and a live daemon
   exercised by concurrent clients. *)

module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Graph6 = Nf_graph.Graph6
module Layout = Nf_store.Layout
module Build = Nf_store.Build
module Reader = Nf_store.Reader
open Nf_serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_ids = Alcotest.(check (list int))
let check_strings = Alcotest.(check (list string))

(* --- fixtures ----------------------------------------------------------- *)

let temp_store () =
  let path = Filename.temp_file "nf_serve_test" ".nfs" in
  Sys.remove path;
  path

let with_store ?game ?with_ucg ?(chunk = 4) n f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (Build.build ?game ?with_ucg ~chunk ~path ~n ());
      f path)

let with_temp_dir f =
  let dir = Filename.temp_file "nf_serve_shards" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let record_equal (a : Layout.record) (b : Layout.record) =
  a.Layout.graph6 = b.Layout.graph6
  && Interval.equal a.Layout.bcg b.Layout.bcg
  &&
  match (a.Layout.ucg, b.Layout.ucg) with
  | None, None -> true
  | Some x, Some y -> Interval.Union.equal x y
  | _ -> false

(* The record oracle: a store file's header and records pulled through
   the channel reader, or a shard directory's volumes concatenated in
   file-name order (the fixtures name volumes shard_JJ_of_KK.nfs, so
   that is shard order). *)
let channel_records path =
  let paths =
    if Sys.is_directory path then
      List.map (Filename.concat path) (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ path ]
  in
  let volumes =
    List.map
      (fun p ->
        let scan, chunks =
          In_channel.with_open_bin p (fun ic ->
              Reader.walk ic ~init:[] (Reader.Records (fun _ acc _ recs -> recs :: acc)))
        in
        Option.iter Alcotest.fail scan.Reader.failure;
        (scan.Reader.header, Array.concat (List.rev chunks)))
      paths
  in
  (fst (List.hd volumes), Array.concat (List.map snd volumes))

(* The stable-set oracle: a linear scan of the records, testing the
   region column the game is stored in. *)
let scan_ids (header : Layout.header) records ~game ~alpha =
  let union =
    match header.Layout.content with
    | Layout.Classic _ -> game = "ucg"
    | Layout.Game { union; _ } -> union
  in
  let stable (r : Layout.record) =
    if union then Option.fold ~none:false ~some:(Interval.Union.mem alpha) r.Layout.ucg
    else Interval.mem alpha r.Layout.bcg
  in
  List.filter (fun i -> stable records.(i)) (List.init (Array.length records) Fun.id)

(* --- mmap reader -------------------------------------------------------- *)

(* every record served off the mapping equals the channel reader's, and
   the header agrees field-for-field *)
let test_mmap_record_parity () =
  with_store ~chunk:4 5 (fun path ->
      let header, entries = channel_records path in
      let m = Mmap_reader.open_store ~path () in
      check_int "length" (Array.length entries) (Mmap_reader.length m);
      check_int "n" header.Layout.n (Mmap_reader.n m);
      check_bool "header" true (header = Mmap_reader.header m);
      check_string "game" (Build.game_of_content header.Layout.content) (Mmap_reader.game m);
      Array.iteri
        (fun i r ->
          check_bool
            (Printf.sprintf "record %d" i)
            true
            (record_equal r (Mmap_reader.record m i));
          check_string "graph6 accessor" r.Layout.graph6 (Mmap_reader.graph6 m i))
        entries;
      (* iter visits the same records in the same order *)
      let seen = ref [] in
      Mmap_reader.iter m (fun i r -> seen := (i, r.Layout.graph6) :: !seen);
      check_int "iter count" (Array.length entries) (List.length !seen);
      List.iter
        (fun (i, g6) -> check_string "iter order" entries.(i).Layout.graph6 g6)
        !seen;
      check_bool "oob low" true
        (match Mmap_reader.record m (-1) with exception Invalid_argument _ -> true | _ -> false);
      check_bool "oob high" true
        (match Mmap_reader.record m (Mmap_reader.length m) with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Mmap_reader.close m)

(* a shard directory maps volume-by-volume and serves the merged view *)
let test_mmap_shard_directory () =
  with_temp_dir (fun dir ->
      List.iter
        (fun j ->
          let path = Filename.concat dir (Printf.sprintf "shard_%02d_of_03.nfs" j) in
          ignore (Build.build ~shard:(j, 3) ~chunk:4 ~path ~n:5 ()))
        [ 1; 2; 3 ];
      let header, entries = channel_records dir in
      let m = Mmap_reader.open_store ~path:dir () in
      check_int "volumes" 3 (List.length (Mmap_reader.volumes m));
      check_int "length" (Array.length entries) (Mmap_reader.length m);
      check_bool "merged header = volume header, shard cleared" true
        ({ header with Layout.shard = None } = Mmap_reader.header m);
      check_bool "merged header unsharded" true
        ((Mmap_reader.header m).Layout.shard = None);
      Array.iteri
        (fun i r ->
          check_bool (Printf.sprintf "record %d" i) true (record_equal r (Mmap_reader.record m i)))
        entries;
      (* one volume opened alone keeps its shard metadata and is a
         strict slice *)
      let one = Mmap_reader.open_store ~path:(Filename.concat dir "shard_02_of_03.nfs") () in
      check_bool "volume shard" true ((Mmap_reader.header one).Layout.shard = Some (2, 3));
      check_bool "volume is a strict slice" true (Mmap_reader.length one < Array.length entries);
      Mmap_reader.close m)

(* the decoded-chunk cache honors its bound; iter bypasses it *)
let test_mmap_cache_bound () =
  with_store ~chunk:4 5 (fun path ->
      let m = Mmap_reader.open_store ~cache_chunks:2 ~path () in
      for i = 0 to Mmap_reader.length m - 1 do
        ignore (Mmap_reader.record m i);
        check_bool "bound" true (Mmap_reader.cached_chunks m <= 2)
      done;
      check_bool "cache in use" true (Mmap_reader.cached_chunks m > 0);
      Mmap_reader.close m;
      check_int "close drops cache" 0 (Mmap_reader.cached_chunks m);
      let uncached = Mmap_reader.open_store ~cache_chunks:0 ~path () in
      for i = 0 to Mmap_reader.length uncached - 1 do
        ignore (Mmap_reader.record uncached i)
      done;
      check_int "cache disabled" 0 (Mmap_reader.cached_chunks uncached);
      let streaming = Mmap_reader.open_store ~path () in
      Mmap_reader.iter streaming (fun _ _ -> ());
      check_int "iter bypasses cache" 0 (Mmap_reader.cached_chunks streaming))

(* flip one body byte of chunk 0; the framing stays intact, so the store
   still opens and only that chunk's CRC fails *)
let damage_chunk0_body path =
  let damaged = Bytes.of_string (read_file path) in
  let at = Layout.header_size + Layout.chunk_header_size + 2 in
  Bytes.set damaged at (Char.chr (Char.code (Bytes.get damaged at) lxor 0x40));
  write_file path (Bytes.to_string damaged)

(* a damaged chunk body maps fine, fails loudly on first decode, and
   leaves every other chunk serving *)
let test_mmap_corruption_isolated () =
  with_store ~chunk:4 5 (fun path ->
      damage_chunk0_body path;
      let m = Mmap_reader.open_store ~path () in
      check_bool "chunk 0 corrupt on access" true
        (match Mmap_reader.record m 0 with exception Layout.Corrupt _ -> true | _ -> false);
      (* the last record lives in the last chunk, untouched by the flip *)
      let last = Mmap_reader.length m - 1 in
      check_bool "last chunk still serves" true
        (String.length (Mmap_reader.graph6 m last) > 0);
      Mmap_reader.close m)

(* open-time framing validation: a truncated tail is refused outright *)
let test_mmap_truncation_refused () =
  with_store ~chunk:4 5 (fun path ->
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes - 7));
      check_bool "truncated store refused" true
        (match Mmap_reader.open_store ~path () with
        | exception Layout.Corrupt _ -> true
        | m ->
          Mmap_reader.close m;
          false))

(* --- α-interval index --------------------------------------------------- *)

let ep r = Interval.Finite r

(* hand-picked regions exercising every endpoint shape: closed/open on
   either side, points, rays, unions, empties *)
let unit_pieces =
  [|
    [ Interval.closed (Rat.of_int 1) (Rat.of_int 2) ];
    [ Interval.make ~lo:(ep Rat.one) ~lo_closed:false ~hi:(ep (Rat.of_int 2)) ~hi_closed:false ];
    [ Interval.point (Rat.make 3 2) ];
    [ Interval.make ~lo:Interval.Neg_inf ~lo_closed:false ~hi:(ep Rat.one) ~hi_closed:true ];
    [ Interval.make ~lo:(ep (Rat.of_int 2)) ~lo_closed:true ~hi:Interval.Pos_inf ~hi_closed:false ];
    [];
    [ Interval.open_closed Rat.zero (ep Rat.one); Interval.closed (Rat.of_int 2) (Rat.of_int 3) ];
    [ Interval.empty ];
    [ Interval.full ];
  |]

(* the dictionary over record i's region [pieces.(i)]; each record's
   region code reads its pieces back *)
let index_of pieces =
  let b = Alpha_index.builder () in
  let codes = Array.map (Alpha_index.add b) pieces in
  let idx = Alpha_index.freeze b in
  Array.iteri
    (fun i code -> check_bool "region code reads back" true (Alpha_index.region idx code = pieces.(i)))
    codes;
  idx

let naive_stable_at pieces ~alpha =
  let hit ps = List.exists (fun p -> Interval.mem alpha p) ps in
  Array.to_list pieces
  |> List.mapi (fun i ps -> (i, ps))
  |> List.filter_map (fun (i, ps) -> if hit ps then Some i else None)

(* probe set for a piece array: every distinct endpoint exactly, points
   just off each endpoint, midpoints of consecutive endpoints, and a
   point beyond each end of the line *)
let probes_of_endpoints eps =
  let eps = Array.to_list eps in
  let nudge = Rat.make 1 1000003 in
  let near e = [ Rat.sub e nudge; e; Rat.add e nudge ] in
  let rec mids = function
    | a :: (b :: _ as rest) -> Rat.div (Rat.add a b) (Rat.of_int 2) :: mids rest
    | _ -> []
  in
  let outer =
    match eps with
    | [] -> [ Rat.zero ]
    | first :: _ ->
      let last = List.nth eps (List.length eps - 1) in
      [ Rat.sub first Rat.one; Rat.add last Rat.one ]
  in
  List.concat_map near eps @ mids eps @ outer

(* the dictionary stab against the naive filter at one α: the ids, and
   the count the renderer sizes its buffer from *)
let check_stab label idx pieces ~alpha =
  let expected = naive_stable_at pieces ~alpha in
  let at = Printf.sprintf "%s at %s" label (Rat.to_string alpha) in
  check_ids at expected (Alpha_index.stable_at idx ~alpha);
  check_int (at ^ " count") (List.length expected) (fst (Alpha_index.stab idx ~alpha))

let test_alpha_index_unit () =
  (* every region twice, interleaved, so each dictionary entry holds
     several ids *)
  let pieces = Array.append unit_pieces unit_pieces in
  let idx = index_of pieces in
  check_int "one entry per distinct region"
    (List.length (List.sort_uniq compare (Array.to_list unit_pieces)))
    (Alpha_index.regions idx);
  (* the two pointless regions, [] and [empty], keep no ids *)
  check_int "ids of live regions" (2 * (Array.length unit_pieces - 2)) (Alpha_index.ids idx);
  let probes = probes_of_endpoints (Alpha_index.endpoints idx) in
  check_bool "probes cover the endpoints" true (List.length probes > 10);
  List.iter (fun alpha -> check_stab "unit" idx pieces ~alpha) probes

(* one record whose union pieces overlap (as a non-normalized union
   would): several of its pieces contain the same α, and the stab must
   still return it once, in ascending order *)
let test_alpha_index_overlapping_pieces () =
  let pieces =
    [|
      [ Interval.closed (Rat.of_int 2) (Rat.of_int 4) ];
      [
        Interval.closed Rat.one (Rat.of_int 3);
        Interval.closed (Rat.of_int 2) (Rat.of_int 5);
        Interval.point (Rat.of_int 3);
        Interval.open_closed (Rat.make 5 2) (ep (Rat.of_int 7));
      ];
      [ Interval.closed Rat.zero (Rat.of_int 6) ];
    |]
  in
  let idx = index_of pieces in
  check_ids "overlap point" [ 0; 1; 2 ] (Alpha_index.stable_at idx ~alpha:(Rat.of_int 3));
  check_ids "overlap tail" [ 1 ] (Alpha_index.stable_at idx ~alpha:(Rat.make 13 2));
  (* the naive filter lists each id once, ascending *)
  List.iter
    (fun alpha -> check_stab "overlap" idx pieces ~alpha)
    (probes_of_endpoints (Alpha_index.endpoints idx))

let qcheck test = QCheck_alcotest.to_alcotest test

let arb_rat =
  QCheck.map
    (fun (p, q) -> Rat.make p (1 + abs q))
    QCheck.(pair (int_range (-60) 60) (int_range 0 12))

let arb_interval =
  QCheck.map
    (fun ((a, b), (lc, hc, shape)) ->
      match shape mod 5 with
      | 0 -> Interval.make ~lo:(ep (Rat.min a b)) ~lo_closed:lc ~hi:(ep (Rat.max a b)) ~hi_closed:hc
      | 1 -> Interval.make ~lo:Interval.Neg_inf ~lo_closed:false ~hi:(ep a) ~hi_closed:hc
      | 2 -> Interval.make ~lo:(ep a) ~lo_closed:lc ~hi:Interval.Pos_inf ~hi_closed:false
      | 3 -> Interval.point a
      | _ -> Interval.empty)
    QCheck.(pair (pair arb_rat arb_rat) (triple bool bool small_nat))

let prop_alpha_index_matches_naive =
  QCheck.Test.make ~count:200 ~name:"alpha index = naive filter on random regions"
    QCheck.(small_list (small_list arb_interval))
    (fun regions ->
      let pieces = Array.of_list regions in
      let idx = index_of pieces in
      List.for_all
        (fun alpha -> naive_stable_at pieces ~alpha = Alpha_index.stable_at idx ~alpha)
        (probes_of_endpoints (Alpha_index.endpoints idx)))

(* a store's distinct finite region endpoints, exactly: those of the
   interval column and of every union piece *)
let store_endpoints (entries : Layout.record array) =
  let eps = ref [] in
  let add p =
    match Interval.bounds p with
    | None -> ()
    | Some (lo, _, hi, _) ->
      List.iter (function Interval.Finite e -> eps := e :: !eps | _ -> ()) [ lo; hi ]
  in
  Array.iter
    (fun (r : Layout.record) ->
      add r.Layout.bcg;
      Option.iter (fun u -> List.iter add (Interval.Union.to_list u)) r.Layout.ucg)
    entries;
  Array.of_list (List.sort_uniq Rat.compare !eps)

(* --- satellite 3: boundary differential, every registered game ---------- *)

(* at every distinct region endpoint (exactly), between consecutive
   endpoints, and outside the endpoint span, the α-interval index and
   the graph6 slab must agree with a linear scan of the same store's
   records (test_differential.ml's per-game rows hold the store's
   source to a fresh one) *)
let test_boundary_differential () =
  List.iter
    (fun game_name ->
      with_store ~game:game_name ~chunk:8 5 (fun path ->
          let header, records = channel_records path in
          let service = Service.create ~path () in
          let endpoints = store_endpoints records in
          check_bool (game_name ^ " has finite endpoints") true (Array.length endpoints > 0);
          List.iter
            (fun alpha ->
              let served = Service.stable_ids service ~game:game_name ~alpha in
              check_ids
                (Printf.sprintf "%s ids at %s" game_name (Rat.to_string alpha))
                (scan_ids header records ~game:game_name ~alpha)
                served;
              check_strings
                (Printf.sprintf "%s graphs at %s" game_name (Rat.to_string alpha))
                (List.map (fun i -> records.(i).Layout.graph6) served)
                (Json.slice_strings (Service.stable_slices service ~game:game_name ~alpha)))
            (probes_of_endpoints endpoints)))
    (List.map Netform.Game.name (Netform.Game_registry.ci_instances ()))

(* the dictionary stab against a linear [Interval.mem]/[Union.mem] scan
   over [Mmap_reader.iter], for every column of the n = 7 classic store
   and of an n = 6 union-game store: at every finite endpoint, just off
   each, between consecutive ones, below the first and above the last *)
let test_store_differential () =
  let check ~game ~with_ucg n columns =
    with_store ?game ?with_ucg ~chunk:16 n (fun path ->
        let m = Mmap_reader.open_store ~path () in
        let records = ref [] in
        Mmap_reader.iter m (fun _ r -> records := r :: !records);
        let records = Array.of_list (List.rev !records) in
        let s = Service.create ~path () in
        List.iter
          (fun (name, union) ->
            let stable alpha (r : Layout.record) =
              if union then Option.fold ~none:false ~some:(Interval.Union.mem alpha) r.Layout.ucg
              else Interval.mem alpha r.Layout.bcg
            in
            List.iter
              (fun alpha ->
                let scan = ref [] in
                Array.iteri (fun i r -> if stable alpha r then scan := i :: !scan) records;
                check_ids
                  (Printf.sprintf "n=%d %s at %s" n name (Rat.to_string alpha))
                  (List.rev !scan)
                  (Service.stable_ids s ~game:name ~alpha))
              (probes_of_endpoints (store_endpoints records)))
          columns)
  in
  check ~game:None ~with_ucg:(Some true) 7 [ ("bcg", false); ("ucg", true) ];
  check ~game:(Some "coalition:k=2") ~with_ucg:None 6 [ ("coalition:k=2", true) ]

(* --- service ------------------------------------------------------------ *)

let stable_at_line alpha = Printf.sprintf {|{"op":"stable-at","alpha":%S}|} alpha
let entry_line graph6 = Printf.sprintf {|{"op":"entry","graph6":%S}|} graph6

let test_service_query_parity () =
  with_store ~chunk:4 5 (fun path ->
      let header, records = channel_records path in
      let s = Service.create ~path () in
      check_string "default game" "bcg" (Service.default_game s);
      List.iter
        (fun alpha ->
          List.iter
            (fun game ->
              check_ids
                (Printf.sprintf "%s at %s" game (Rat.to_string alpha))
                (scan_ids header records ~game ~alpha)
                (Service.stable_ids s ~game ~alpha))
            [ "bcg"; "ucg" ])
        [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 5 ];
      (* the rejection text is pinned, and a request for another game
         answers it as the error response *)
      let rejected = {|store carries "ucg" annotations, not "transfers"|} in
      check_string "unknown game rejection" rejected
        (match Service.stable_ids s ~game:"transfers" ~alpha:Rat.one with
        | exception Invalid_argument msg -> msg
        | _ -> "no rejection");
      check_string "rejection over the evaluator"
        (Json.to_string (Protocol.error_response rejected))
        (Json.to_string
           (Server.respond s (Protocol.Stable_at { game = Some "transfers"; alpha = Rat.one })));
      (* the figure cache (test_differential.ml holds the figure and
         export CSVs to a fresh source's) *)
      let figures = Service.figure_csv s () in
      let stats0 = Service.stats s in
      check_string "figure csv (cached)" figures (Service.figure_csv s ());
      let stats1 = Service.stats s in
      check_int "cache hit counted" (stats0.Service.figure_cache_hits + 1)
        stats1.Service.figure_cache_hits)

(* entry answers from the resident columns: over each content shape,
   in several chunks, every ordinal's [find_entry] and its [entry] line
   equal what the record off the mapping gives, and no chunk is ever
   decoded into the service's cache *)
let test_service_entry_columns () =
  let check ~label ?game ?with_ucg () =
    with_store ?game ?with_ucg ~chunk:8 6 (fun path ->
        let s = Service.create ~path () in
        let oracle = Mmap_reader.open_store ~path () in
        check_bool (label ^ ": several chunks") true (Mmap_reader.chunks oracle > 4);
        for i = 0 to Mmap_reader.length oracle - 1 do
          let r = Mmap_reader.record oracle i in
          let graph6 = r.Layout.graph6 in
          (match Service.find_entry s ~graph6 with
          | Some (j, r') ->
            check_int (Printf.sprintf "%s: ordinal of %S" label graph6) i j;
            check_bool (Printf.sprintf "%s: record of %S" label graph6) true (record_equal r r')
          | None -> Alcotest.failf "%s: %S not found" label graph6);
          let rendered =
            Protocol.ok_response
              [
                ("op", Json.Str "entry");
                ("id", Json.Int i);
                ("graph6", Json.Str graph6);
                ( "regions",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (Service.region_strings s r)) );
              ]
          in
          check_string
            (Printf.sprintf "%s: entry line of %S" label graph6)
            (Json.to_line rendered)
            (fst (Server.handle_line s (entry_line graph6)))
        done;
        check_bool (label ^ ": missing entry") true (Service.find_entry s ~graph6:"~~~~" = None);
        check_int (label ^ ": no chunk decoded") 0 (Mmap_reader.cached_chunks (Service.store s)))
  in
  check ~label:"classic bcg" ~with_ucg:false ();
  check ~label:"classic bcg+ucg" ~game:"ucg" ();
  check ~label:"interval game" ~game:"transfers" ();
  check ~label:"union game" ~game:"coalition:k=2" ()

let test_service_game_store_figures () =
  with_store ~game:"transfers" ~chunk:8 5 (fun path ->
      let s = Service.create ~path () in
      check_string "default game" "transfers" (Service.default_game s);
      (* the store's own figure is its game's curves, not the pair *)
      check_string "game figure csv header"
        "game,total_link_cost,alpha,count,avg_poa,worst_poa,best_poa,avg_links"
        (List.hd (String.split_on_char '\n' (Service.figure_csv s ()))))

(* stable_slices reads the graph6 slab; it must name exactly the
   records a linear scan picks, at every distinct endpoint, just off
   each, between endpoints, beyond the last finite one and on the paper
   grid — over a classic dual store, a union-region game store and a
   shard directory, all in 4-record chunks so answers span many chunks
   (and volumes) *)
let check_graph6_parity ~label ~games path =
  let header, entries = channel_records path in
  let s = Service.create ~path () in
  let probes = probes_of_endpoints (store_endpoints entries) @ Nf_analysis.Sweep.paper_grid in
  let widest = ref 0 in
  List.iter
    (fun game ->
      List.iter
        (fun alpha ->
          let expected =
            List.map (fun i -> entries.(i).Layout.graph6) (scan_ids header entries ~game ~alpha)
          in
          widest := max !widest (List.length expected);
          check_strings
            (Printf.sprintf "%s %s at %s" label game (Rat.to_string alpha))
            expected
            (Json.slice_strings (Service.stable_slices s ~game ~alpha)))
        probes)
    games;
  check_bool (label ^ ": some answer spans several chunks") true (!widest > 8)

let test_service_graph6_parity () =
  with_store ~with_ucg:true ~chunk:4 6 (fun path ->
      check_graph6_parity ~label:"classic" ~games:[ "bcg"; "ucg" ] path);
  with_store ~game:"coalition:k=2" ~chunk:4 6 (fun path ->
      check_graph6_parity ~label:"union game" ~games:[ "coalition:k=2" ] path);
  with_temp_dir (fun dir ->
      List.iter
        (fun j ->
          let path = Filename.concat dir (Printf.sprintf "shard_%02d_of_03.nfs" j) in
          ignore (Build.build ~with_ucg:true ~shard:(j, 3) ~chunk:4 ~path ~n:6 ()))
        [ 1; 2; 3 ];
      check_graph6_parity ~label:"shards" ~games:[ "bcg"; "ucg" ] dir)

(* a stable-at rendered from the slab is byte for byte the response the
   list-of-strings renderer gives, escapes included: at n = 6 the class
   "Es\o" (BCG region [1, 2]) is stable at 3/2 *)
let test_service_slab_escapes () =
  with_store ~chunk:4 6 (fun path ->
      let header, records = channel_records path in
      let s = Service.create ~path () in
      let alpha = Rat.make 3 2 in
      let graphs =
        List.map (fun i -> records.(i).Layout.graph6) (scan_ids header records ~game:"bcg" ~alpha)
      in
      check_bool "the answer holds a graph6 with a backslash" true (List.mem {|Es\o|} graphs);
      let listed =
        Protocol.ok_response
          [
            ("op", Json.Str "stable-at");
            ("game", Json.Str "bcg");
            ("alpha", Json.Str "3/2");
            ("count", Json.Int (List.length graphs));
            ("graphs", Json.List (List.map (fun g -> Json.Str g) graphs));
          ]
      in
      check_string "response bytes" (Json.to_string listed ^ "\n")
        (fst (Server.handle_line s (stable_at_line "3/2")));
      check_strings "slices read back as strings" graphs
        (List.filter_map Json.to_str
           (Option.get (Json.to_list (Json.Slices (Service.stable_slices s ~game:"bcg" ~alpha))))))

(* stats report the columnar structures once the first pass has run —
   distinct regions and finite endpoints per carried game, and the
   payload bytes of slab, id arrays, region codes (4 bytes per record
   per carried column) and entry order — and none before *)
let test_service_resident_stats () =
  with_store ~with_ucg:true ~chunk:4 6 (fun path ->
      let _, records = channel_records path in
      let s = Service.create ~path () in
      let before = Service.stats s in
      check_int "nothing resident before first use" 0 before.Service.resident_bytes;
      check_bool "nothing indexed before first use" true
        (before.Service.indexed_games = [] && before.Service.regions = []);
      ignore (Service.find_entry s ~graph6:records.(0).Layout.graph6);
      let after = Service.stats s in
      let column (r : Layout.record) = function
        | "bcg" -> [ r.Layout.bcg ]
        | _ -> Interval.Union.to_list (Option.get r.Layout.ucg)
      in
      let per_game f = List.map (fun g -> (g, f g)) [ "bcg"; "ucg" ] in
      let regions g =
        List.sort_uniq compare (Array.to_list (Array.map (fun r -> column r g) records))
      in
      check_bool "distinct regions" true
        (after.Service.regions = per_game (fun g -> List.length (regions g)));
      let endpoints g =
        List.concat_map
          (fun r ->
            List.concat_map
              (fun p ->
                match Interval.bounds p with
                | None -> []
                | Some (lo, _, hi, _) ->
                  List.filter_map (function Interval.Finite e -> Some e | _ -> None) [ lo; hi ])
              (column r g))
          (Array.to_list records)
      in
      check_bool "distinct finite endpoints" true
        (after.Service.indexed_games
        = per_game (fun g -> List.length (List.sort_uniq Rat.compare (endpoints g))));
      let live g =
        let pointless r = List.for_all Interval.is_empty (column r g) in
        Array.fold_left (fun acc r -> if pointless r then acc else acc + 1) 0 records
      in
      let count = Array.length records in
      let resident =
        (count * Graph6.encoded_length 6)
        + (4 * count * 2)
        + (Sys.word_size / 8 * (count + live "bcg" + live "ucg"))
      in
      check_int "resident bytes" resident after.Service.resident_bytes;
      let reported = Json.of_string (fst (Server.handle_line s {|{"op":"stats"}|})) in
      check_bool "the stats op reports them" true
        (Json.member "resident_bytes" reported = Some (Json.Int resident)))

(* a CRC-valid store whose record carries a graph6 of another order than
   its header's: the first pass refuses it, pinned, and every later
   stable-at or entry answers that error rather than a misread slab *)
let test_service_graph6_width () =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let header =
        { Layout.n = 5; content = Layout.classic ~with_ucg:false; chunk_size = 2; shard = None }
      in
      let w = Nf_store.Writer.create ~path ~header in
      Nf_store.Writer.append_chunk w
        [|
          { Layout.graph6 = "DQc"; bcg = Interval.point Rat.one; ucg = None };
          { Layout.graph6 = "C~"; bcg = Interval.point Rat.one; ucg = None };
        |];
      Nf_store.Writer.finalize w;
      let s = Service.create ~path () in
      let pinned =
        Printf.sprintf
          {|{"ok":false,"error":"store corrupt: %s: record 1: graph6 \"C~\" is not 3 bytes"}|} path
        ^ "\n"
      in
      List.iter
        (fun line -> check_string line pinned (fst (Server.handle_line s line)))
        [ stable_at_line "1"; entry_line "DQc"; stable_at_line "1" ])

(* a store damaged after it was built: stable-at and entry both need a
   CRC-checked full pass, so both answer the pinned corruption error —
   every time, since a failed pass installs nothing — and never a graph6
   list or entry read from unchecked bytes; health still answers *)
let test_service_damaged_store () =
  with_store ~chunk:4 5 (fun path ->
      let _, entries = channel_records path in
      damage_chunk0_body path;
      let s = Service.create ~path () in
      let ask line = fst (Server.handle_line s line) in
      let pinned = {|{"ok":false,"error":"store corrupt: chunk 0 crc mismatch at byte 0 (stored |} in
      List.iter
        (fun line ->
          let resp = ask line in
          check_bool (Printf.sprintf "%s -> %s" line resp) true (String.starts_with ~prefix:pinned resp))
        [
          stable_at_line "3/2";
          entry_line entries.(Array.length entries - 1).Layout.graph6;
          entry_line entries.(0).Layout.graph6;
          stable_at_line "3/2";
        ];
      check_bool "health still answers" true
        (String.starts_with ~prefix:{|{"ok":true,"op":"health","status":"serving"|}
           (ask {|{"op":"health"}|})))

(* a store cut short — at a chunk boundary, mid-chunk or mid-footer —
   refuses to open with the one pinned incomplete-store message, counting
   the whole chunks before the cut *)
let test_service_incomplete_store () =
  with_store ~chunk:4 5 (fun path ->
      let bytes = read_file path in
      let header = Layout.decode_header bytes in
      let chunk_end pos =
        let _, _, next = Layout.decode_chunk ~content:header.Layout.content bytes ~pos in
        next
      in
      let two_chunks = chunk_end (chunk_end (Layout.header_bytes header)) in
      List.iter
        (fun (what, cut, records, chunks) ->
          write_file path (String.sub bytes 0 cut);
          check_string what
            (Printf.sprintf
               "%s: incomplete store (%d records in %d complete chunks; resume the build)" path
               records chunks)
            (match Service.create ~path () with
            | exception Layout.Corrupt msg -> msg
            | _ -> "opened"))
        [
          ("cut at a chunk boundary", two_chunks, 8, 2);
          ("cut mid-chunk", two_chunks + 5, 8, 2);
          ("cut mid-footer", String.length bytes - (Layout.footer_size / 2), 21, 6);
        ])

(* a chunk's record count forged to 2^31 - 1 with its CRC recomputed,
   and the footer totals forged to agree: opening refuses it from the
   frame header alone, pinned, so nothing is ever sized by the count *)
let test_service_forged_count () =
  with_store ~chunk:512 4 (fun path ->
      let b = Bytes.of_string (read_file path) in
      let set_u32 at v = Bytes.set_int32_le b at (Int32.of_int v) in
      let recrc ~pos ~len =
        set_u32 (pos + len) (Nf_store.Crc32.sub (Bytes.to_string b) ~pos ~len)
      in
      let at = Layout.header_size in
      let body = Int32.to_int (Bytes.get_int32_le b (at + 12)) in
      set_u32 (at + 8) 0x7fffffff;
      recrc ~pos:at ~len:(Layout.chunk_header_size + body);
      let footer = Bytes.length b - Layout.footer_size in
      set_u32 (footer + 8) 0x7fffffff;
      recrc ~pos:footer ~len:12;
      write_file path (Bytes.to_string b);
      check_string "open refuses"
        (Printf.sprintf
           "%s: chunk 0 (frame at byte 24): chunk 0 declares 2147483647 records, more than its \
            %d-byte body can hold"
           path body)
        (match Service.create ~path () with
        | exception Layout.Corrupt msg -> msg
        | _ -> "opened"))

(* the first stable-at and the first entry on a fresh service, raced
   from two domains (and, separately, two first stable-ats): each builds
   its own columns and the first compare-and-set install wins, so both
   answer as a sequential service does and the stats come out the same *)
let test_service_first_use_race () =
  with_store ~chunk:4 6 (fun path ->
      let _, entries = channel_records path in
      let ask s line = fst (Server.handle_line s line) in
      let race lines =
        let seq = Service.create ~path () in
        let expected = List.map (ask seq) lines in
        let expected_stats = Service.stats seq in
        for round = 1 to 20 do
          let s = Service.create ~path () in
          let ready = Atomic.make 0 in
          let racers =
            List.map
              (fun line ->
                Domain.spawn (fun () ->
                    Atomic.incr ready;
                    while Atomic.get ready < List.length lines do
                      Domain.cpu_relax ()
                    done;
                    ask s line))
              lines
          in
          check_strings (Printf.sprintf "round %d answers" round) expected (List.map Domain.join racers);
          check_bool (Printf.sprintf "round %d stats" round) true (Service.stats s = expected_stats);
          check_strings (Printf.sprintf "round %d answers again" round) expected (List.map (ask s) lines)
        done
      in
      race [ stable_at_line "3/2"; entry_line entries.(Array.length entries / 2).Layout.graph6 ];
      race [ stable_at_line "3/2"; stable_at_line "1" ])

(* --- protocol ----------------------------------------------------------- *)

let roundtrip req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> req' = req
  | Error _ -> false

let test_protocol_roundtrip () =
  List.iter
    (fun req -> check_bool "roundtrip" true (roundtrip req))
    [
      Protocol.Stable_at { game = None; alpha = Rat.make 3 2 };
      Protocol.Stable_at { game = Some "ucg"; alpha = Rat.make (-7) 3 };
      Protocol.Entry { graph6 = "DQc" };
      Protocol.Figure_points { grid = None };
      Protocol.Figure_points { grid = Some [ Rat.one; Rat.make 5 4 ] };
      Protocol.Export;
      Protocol.Stats;
      Protocol.Health;
      Protocol.Shutdown;
    ]

let test_protocol_errors () =
  let bad line =
    match Protocol.request_of_line line with Ok _ -> false | Error _ -> true
  in
  check_bool "not json" true (bad "nonsense");
  check_bool "not an object" true (bad "[1,2]");
  check_bool "missing op" true (bad {|{"alpha":"1"}|});
  check_bool "unknown op" true (bad {|{"op":"frobnicate"}|});
  check_bool "stable-at needs alpha" true (bad {|{"op":"stable-at"}|});
  check_bool "alpha must parse" true (bad {|{"op":"stable-at","alpha":"1/0"}|});
  check_bool "entry needs graph6" true (bad {|{"op":"entry"}|});
  let ok line = match Protocol.request_of_line line with Ok r -> Some r | Error _ -> None in
  check_bool "exact rational alpha" true
    (ok {|{"op":"stable-at","alpha":"22/7"}|}
    = Some (Protocol.Stable_at { game = None; alpha = Rat.make 22 7 }));
  let resp = Protocol.error_response "boom" in
  check_bool "error response" true ((not (Protocol.response_ok resp)) && Protocol.response_error resp = "boom");
  check_bool "ok response" true (Protocol.response_ok (Protocol.ok_response [ ("op", Json.Str "health") ]))

let test_json_roundtrip () =
  List.iter
    (fun s -> check_string "parse/print" s (Json.to_string (Json.of_string s)))
    [
      {|null|};
      {|true|};
      {|-42|};
      {|"a\"b\\c\nd"|};
      {|[1,2,[3,{"k":"v"}]]|};
      {|{"ok":true,"graphs":["DQc","D]w"],"count":2}|};
    ];
  check_bool "parse error raised" true
    (match Json.of_string "{" with exception Json.Parse_error _ -> true | _ -> false);
  check_bool "trailing bytes rejected" true
    (match Json.of_string "1 x" with exception Json.Parse_error _ -> true | _ -> false);
  (* escapes and unicode survive a round trip through the printer *)
  let v = Json.Obj [ ("s", Json.Str "tab\there\nand \xe2\x88\x9e") ] in
  check_bool "reparse" true (Json.of_string (Json.to_string v) = v)

(* --- daemon end-to-end --------------------------------------------------- *)

let wait_for_socket path =
  let rec go tries =
    if tries = 0 then Alcotest.fail (Printf.sprintf "socket %s never appeared" path)
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.05;
      go (tries - 1)
    end
  in
  go 200

let expect_str resp field =
  match Option.bind (Json.member field resp) Json.to_str with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "response lacks string %S" field)

let expect_strings resp field =
  match Option.bind (Json.member field resp) Json.to_list with
  | Some l -> List.filter_map Json.to_str l
  | None -> Alcotest.fail (Printf.sprintf "response lacks list %S" field)

let test_daemon_end_to_end () =
  with_store ~chunk:4 5 (fun path ->
      let sock = Filename.temp_file "nf_serve_sock" ".sock" in
      Sys.remove sock;
      let server =
        Domain.spawn (fun () ->
            Server.serve ~report:ignore ~addr:(Server.Unix_socket sock) ~path ())
      in
      Fun.protect
        ~finally:(fun () ->
          (* belt and braces: if an assertion failed mid-test, still ask
             the daemon down so the domain can be joined *)
          (try
             let c = Client.connect sock in
             ignore (Client.request c Protocol.Shutdown);
             Client.close c
           with _ -> ());
          (try Domain.join server with _ -> ());
          if Sys.file_exists sock then Sys.remove sock)
        (fun () ->
          wait_for_socket sock;
          let _, entries = channel_records path in
          (* the in-process answers the wire must reproduce *)
          let local = Service.create ~path () in
          (* four concurrent connections, used interleaved *)
          let clients = List.init 4 (fun _ -> Client.connect sock) in
          let alphas = [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2 ] in
          List.iteri
            (fun i c ->
              let alpha = List.nth alphas i in
              let resp = Client.request c (Protocol.Stable_at { game = None; alpha }) in
              check_bool "ok" true (Protocol.response_ok resp);
              check_strings
                (Printf.sprintf "stable at %s over the wire" (Rat.to_string alpha))
                (Json.slice_strings (Service.stable_slices local ~game:"bcg" ~alpha))
                (expect_strings resp "graphs"))
            clients;
          (* the same connections again, out of the order they were opened *)
          List.iteri
            (fun i c ->
              let resp = Client.request c Protocol.Health in
              check_bool "health ok" true (Protocol.response_ok resp);
              check_string (Printf.sprintf "health %d" i) "serving" (expect_str resp "status"))
            (List.rev clients);
          let c0 = List.hd clients in
          let fig = Client.request c0 (Protocol.Figure_points { grid = None }) in
          check_string "figures over the wire"
            (Service.figure_csv local ())
            (expect_str fig "csv");
          let exp = Client.request c0 Protocol.Export in
          check_string "export over the wire"
            (Nf_analysis.Dataset.to_csv (Service.source local))
            (expect_str exp "csv");
          let entry_g6 = entries.(3).Layout.graph6 in
          let ent = Client.request c0 (Protocol.Entry { graph6 = entry_g6 }) in
          check_string "entry graph6" entry_g6 (expect_str ent "graph6");
          (match Json.member "id" ent with
          | Some (Json.Int 3) -> ()
          | _ -> Alcotest.fail "entry id mismatch");
          let missing = Client.request c0 (Protocol.Entry { graph6 = "~~~~" }) in
          check_bool "missing entry is an error" true (not (Protocol.response_ok missing));
          (* a malformed line answers an error and keeps the connection *)
          let bad = Client.request_raw c0 "this is not json" in
          check_bool "malformed line" true (not (Protocol.response_ok bad));
          let again = Client.request c0 Protocol.Health in
          check_bool "connection survives" true (Protocol.response_ok again);
          let stats = Client.request c0 Protocol.Stats in
          check_bool "stats ok" true (Protocol.response_ok stats);
          check_bool "stats counts requests" true
            (match Json.member "requests" stats with Some (Json.Int r) -> r > 0 | _ -> false);
          (* shutdown: acknowledged, then the daemon drains and exits *)
          let down = Client.request c0 Protocol.Shutdown in
          check_string "shutdown acknowledged" "shutting-down" (expect_str down "status");
          List.iter Client.close clients;
          Domain.join server;
          check_bool "socket removed" true (not (Sys.file_exists sock))))

(* pipelined requests whose responses overflow the socket buffer, read
   back in 4 KB pieces: the daemon resumes each queued response line
   where its last partial write stopped, so the bytes are exactly the
   in-process handle_line outputs, in request order *)
let test_daemon_pipelined_reads () =
  with_store ~game:"bcg" ~chunk:512 8 (fun path ->
      let s = Service.create ~path () in
      let entry = Mmap_reader.graph6 (Service.store s) 100 in
      (* four rounds of two heavy stable-ats (4155 graphs each at
         n = 8) and an entry *)
      let bcg_line = {|{"op":"stable-at","game":"bcg","alpha":"1"}|} in
      let lines =
        List.concat (List.init 4 (fun _ -> [ stable_at_line "1"; bcg_line; entry_line entry ]))
      in
      let expected = String.concat "" (List.map (fun l -> fst (Server.handle_line s l)) lines) in
      check_bool "responses overflow a socket buffer" true (String.length expected > 256 * 1024);
      let sock = Filename.temp_file "nf_serve_sock" ".sock" in
      Sys.remove sock;
      let server =
        Domain.spawn (fun () -> Server.serve ~report:ignore ~addr:(Server.Unix_socket sock) ~path ())
      in
      wait_for_socket sock;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      (* a stalled stream fails the read instead of hanging the test *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let send text = ignore (Unix.write_substring fd text 0 (String.length text)) in
      send (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      (* let the daemon fill the socket buffer and stall before reading *)
      Unix.sleepf 0.2;
      let got = Buffer.create (String.length expected) in
      let piece = Bytes.create 4096 in
      while Buffer.length got < String.length expected do
        match Unix.read fd piece 0 4096 with
        | 0 -> Alcotest.fail "daemon closed the connection early"
        | k -> Buffer.add_subbytes got piece 0 k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail (Printf.sprintf "stream stalled after %d bytes" (Buffer.length got))
      done;
      check_int "bytes received" (String.length expected) (Buffer.length got);
      check_bool "bytes equal the in-process responses, in order" true
        (String.equal expected (Buffer.contents got));
      send "{\"op\":\"shutdown\"}\n";
      ignore (Unix.read fd piece 0 4096);
      Unix.close fd;
      Domain.join server)

(* SIGTERM reaches the serve loop's handler and produces the same clean
   drain as the shutdown op *)
let test_daemon_sigterm () =
  with_store ~chunk:4 5 (fun path ->
      let sock = Filename.temp_file "nf_serve_sock" ".sock" in
      Sys.remove sock;
      let server =
        Domain.spawn (fun () ->
            Server.serve ~report:ignore ~addr:(Server.Unix_socket sock) ~path ())
      in
      wait_for_socket sock;
      let c = Client.connect sock in
      check_bool "serving" true (Protocol.response_ok (Client.request c Protocol.Health));
      Client.close c;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Domain.join server;
      check_bool "socket removed" true (not (Sys.file_exists sock)))

(* --- runner -------------------------------------------------------------- *)

let () =
  Alcotest.run "nf_serve"
    [
      ( "mmap",
        [
          Alcotest.test_case "record parity" `Quick test_mmap_record_parity;
          Alcotest.test_case "shard directory" `Quick test_mmap_shard_directory;
          Alcotest.test_case "cache bound" `Quick test_mmap_cache_bound;
          Alcotest.test_case "corruption isolated" `Quick test_mmap_corruption_isolated;
          Alcotest.test_case "truncation refused" `Quick test_mmap_truncation_refused;
        ] );
      ( "alpha index",
        [
          Alcotest.test_case "unit regions" `Quick test_alpha_index_unit;
          Alcotest.test_case "overlapping pieces" `Quick test_alpha_index_overlapping_pieces;
          qcheck prop_alpha_index_matches_naive;
          Alcotest.test_case "boundary differential" `Quick test_boundary_differential;
          Alcotest.test_case "store differential" `Quick test_store_differential;
        ] );
      ( "service",
        [
          Alcotest.test_case "query parity" `Quick test_service_query_parity;
          Alcotest.test_case "entry from columns" `Quick test_service_entry_columns;
          Alcotest.test_case "game store figures" `Quick test_service_game_store_figures;
          Alcotest.test_case "graph6 parity" `Quick test_service_graph6_parity;
          Alcotest.test_case "slab escapes" `Quick test_service_slab_escapes;
          Alcotest.test_case "resident stats" `Quick test_service_resident_stats;
          Alcotest.test_case "graph6 width refused" `Quick test_service_graph6_width;
          Alcotest.test_case "damaged store" `Quick test_service_damaged_store;
          Alcotest.test_case "incomplete store" `Quick test_service_incomplete_store;
          Alcotest.test_case "forged record count" `Quick test_service_forged_count;
          Alcotest.test_case "first-use race" `Quick test_service_first_use_race;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "request errors" `Quick test_protocol_errors;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Quick test_daemon_end_to_end;
          Alcotest.test_case "pipelined partial reads" `Quick test_daemon_pipelined_reads;
          Alcotest.test_case "sigterm" `Quick test_daemon_sigterm;
        ] );
    ]
