module Graph = Nf_graph.Graph
module Pool = Nf_util.Pool
module Stats = Nf_util.Stats
open Netform

type outcome = {
  path : string;
  n : int;
  game : string;
  with_ucg : bool;
  shard : (int * int) option;
  chunks : int;
  records : int;
  resumed_records : int;
  seconds : float;
}

(* Map between store content descriptors and registered games.  The two
   classic layouts are the BCG (tag 0) and UCG (tag 1) stores the format
   has always produced — building "--game bcg"/"--game ucg" emits them
   byte-identically; any other registered game gets a single-region
   [Game] store keyed by its schema tag. *)
let content_of_game name =
  let (Game.Any (module G)) = Game_registry.find_exn name in
  match G.schema_tag with
  | 0 -> Layout.Classic { with_ucg = false }
  | 1 -> Layout.Classic { with_ucg = true }
  | tag ->
    let union =
      match G.region_kind with
      | Game.Region.Interval -> false
      | Game.Region.Union -> true
    in
    Layout.Game { tag; union; params = G.params }

let game_of_content = function
  | Layout.Classic { with_ucg } -> if with_ucg then "ucg" else "bcg"
  | Layout.Game { tag; union = _; params } -> (
    match Game_registry.resolve_tag tag ~params with
    | Some g -> Game.name g
    | None -> Printf.sprintf "unknown(tag %d)" tag)

(* One workspace borrow covers the whole record: the worker domain's
   resident kernel scratch is reused for every record it processes, and
   one sweep-tier detection ([Game.sweep_symmetry]) covers every region
   of the record.  The classic annotator keeps its layout (BCG interval,
   plus the UCG union when flagged); game stores call the registry
   instance's annotator.  Quotiented regions are structurally identical
   to the all-pairs ones, and the golden store md5s pin the bytes. *)
let annotator_of_content = function
  | Layout.Classic { with_ucg } ->
    fun g ->
      Nf_graph.Kernel.with_ws (fun ws ->
          let sym = Game.sweep_symmetry g in
          {
            Layout.graph6 = Nf_graph.Graph6.encode g;
            bcg = Bcg.stable_alpha_set_sym_ws ws sym g;
            ucg = (if with_ucg then Some (Ucg.nash_alpha_set_sym_ws ws sym g) else None);
          })
  | Layout.Game { tag; union; params } -> (
    match Game_registry.resolve_tag tag ~params with
    | None -> failwith (Printf.sprintf "no registered game has schema tag %d" tag)
    | Some (Game.Any (module G)) -> (
      match (G.region_kind, union) with
      | Game.Region.Interval, false ->
        fun g ->
          Nf_graph.Kernel.with_ws (fun ws ->
              {
                Layout.graph6 = Nf_graph.Graph6.encode g;
                bcg = G.stable_region_ws ws (Game.sweep_symmetry g) g;
                ucg = None;
              })
      | Game.Region.Union, true ->
        fun g ->
          Nf_graph.Kernel.with_ws (fun ws ->
              {
                Layout.graph6 = Nf_graph.Graph6.encode g;
                bcg = Nf_util.Interval.empty;
                ucg = Some (G.stable_region_ws ws (Game.sweep_symmetry g) g);
              })
      | (Game.Region.Interval | Game.Region.Union), _ ->
        failwith
          (Printf.sprintf "store region shape contradicts game %S (tag %d)" G.name tag)))

(* The sweep: stream connected classes in chunks off the enumeration
   engine (never materializing the level), annotate each chunk across the
   domain pool, and append it.  Chunk boundaries come from the header's
   chunk size, so a resumed run regenerates exactly the chunks the
   interrupted one would have written next — the enumeration order and
   the annotation are deterministic, which makes resume byte-exact. *)
let run ~writer ~skip_chunks ~report =
  let header = writer.Writer.header in
  let n = header.Layout.n
  and content = header.Layout.content
  and chunk = header.Layout.chunk_size
  and shard = header.Layout.shard in
  let annotate_record = annotator_of_content content in
  let start = Unix.gettimeofday () in
  let resumed_records = writer.Writer.records in
  (* shard builds meter against the shard's own expected size (exact at
     small n, scaled by the shard's parent count above the streaming
     boundary) — never the global level size, which would flatline the
     ETA at k times the truth — and prefix every line with [i/k] so
     interleaved per-shard logs stay attributable *)
  let total, prefix =
    match shard with
    | None -> (Nf_enum.Counts.connected_graphs n, "")
    | Some ((i, k) as shard) ->
      (Nf_enum.Unlabeled.shard_total ~shard n, Printf.sprintf "[%d/%d] " i k)
  in
  let meter = Stats.Progress.create ?total ~initial:resumed_records ~now:Unix.gettimeofday () in
  let iter_chunked =
    match shard with
    | None -> Nf_enum.Unlabeled.iter_connected_chunked ~chunk n
    | Some shard -> Nf_enum.Unlabeled.iter_connected_sharded ~chunk ~shard n
  in
  let ci = ref 0 in
  iter_chunked (fun graphs ->
      let i = !ci in
      incr ci;
      if i >= skip_chunks then begin
        let records = Pool.parallel_map_array annotate_record graphs in
        Writer.append_chunk writer records;
        Stats.Progress.tick meter (Array.length graphs);
        report
          (Printf.sprintf "%schunk %d: %d classes annotated  %s" prefix i (Array.length graphs)
             (Stats.Progress.line meter))
      end);
  Writer.finalize writer;
  {
    path = writer.Writer.final_path;
    n;
    game = game_of_content content;
    with_ucg = Layout.content_with_ucg content;
    shard;
    chunks = writer.Writer.chunks;
    records = writer.Writer.records;
    resumed_records;
    seconds = Unix.gettimeofday () -. start;
  }

let build ?game ?with_ucg ?shard ?(chunk = 512) ?(force = false) ?(report = ignore) ~path ~n () =
  if n < 1 || n > 11 then invalid_arg "Build.build: n out of range (1..11)";
  if chunk < 1 then invalid_arg "Build.build: chunk < 1";
  let shard =
    match shard with
    | None | Some (1, 1) -> None (* a 1-way shard IS the unsharded build, bytes included *)
    | Some (i, k) ->
      if k < 2 || k > Layout.max_shards || i < 1 || i > k then
        invalid_arg
          (Printf.sprintf "Build.build: shard %d/%d out of range (1 <= i <= k <= %d)" i k
             Layout.max_shards);
      Some (i, k)
  in
  let content =
    match game with
    | None -> Layout.Classic { with_ucg = Option.value ~default:(n <= 7) with_ucg }
    | Some name ->
      if Option.is_some with_ucg then
        invalid_arg "Build.build: pass either ~game or ~with_ucg, not both";
      content_of_game name
  in
  if Sys.file_exists path && not force then
    failwith (Printf.sprintf "%s already exists (pass force to rebuild)" path);
  let writer = Writer.create ~path ~header:{ Layout.n; content; chunk_size = chunk; shard } in
  match run ~writer ~skip_chunks:0 ~report with
  | outcome -> outcome
  | exception e ->
    Writer.abort writer;
    raise e

let resume ?(report = ignore) ~path () =
  let part = Writer.part_path path in
  if not (Sys.file_exists part) then
    if Sys.file_exists path then
      failwith (Printf.sprintf "%s is already a complete store (no part file to resume)" path)
    else failwith (Printf.sprintf "nothing to resume: neither %s nor %s exists" part path);
  let writer, scan = Writer.reopen ~path in
  report
    (Printf.sprintf "resuming %s: %d records in %d complete chunks survive" part
       scan.Reader.records scan.Reader.chunks);
  match run ~writer ~skip_chunks:scan.Reader.chunks ~report with
  | outcome -> outcome
  | exception e ->
    Writer.abort writer;
    raise e
