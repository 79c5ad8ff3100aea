(* Reassembling a k-way sharded build into the canonical store.

   The shard split (Nf_enum.Unlabeled.iter_connected_sharded) partitions
   the enumeration stream into k contiguous ranges, so concatenating the
   volumes' record streams in shard order reproduces the unsharded
   stream exactly.  Re-chunking that stream at the family's chunk size
   from record zero then reproduces the single-process chunk framing —
   same boundaries, same indices, same CRCs — and the header (shard bits
   cleared) and footer (recomputed totals) match too, making the merged
   file byte-identical to a store built in one process.

   Every input is strictly verified before a byte of output is written,
   and the finished merge is verified again before it is reported. *)

type outcome = {
  path : string;
  n : int;
  game : string;
  shards : int;
  chunks : int;
  records : int;
  seconds : float;
}

(* [Reader.header], with a damaged header or an unreadable file named *)
let header_of path =
  try Reader.header ~path with
  | Layout.Corrupt msg -> failwith (Printf.sprintf "Merge: %s: %s" path msg)
  | Sys_error msg -> failwith ("Merge: " ^ msg)

let volumes ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "Merge: %s is not a directory" dir);
  let names = Sys.readdir dir in
  Array.sort compare names;
  Array.to_list names
  |> List.filter_map (fun name ->
         let p = Filename.concat dir name in
         if Sys.is_directory p || Filename.check_suffix name ".part" then None
         else
           match header_of p with
           | Some ({ Layout.shard = Some _; _ } as h) -> Some (p, h)
           | Some { Layout.shard = None; _ } | None -> None)

(* A merge family is exactly the k volumes of one split: same n, content
   and chunk size throughout, and shard indices covering 1..k once each.
   Returns the volumes sorted by shard index plus the header the merged
   store will carry (the same bits with the shard metadata cleared). *)
let family vols =
  match vols with
  | [] -> failwith "Merge: no shard volumes to merge"
  | (p0, h0) :: rest ->
    let shard_of p h =
      match h.Layout.shard with
      | Some s -> s
      | None -> failwith (Printf.sprintf "Merge: %s is not a shard volume (no shard metadata)" p)
    in
    let _, k = shard_of p0 h0 in
    List.iter
      (fun (p, h) ->
        if h.Layout.n <> h0.Layout.n then
          failwith
            (Printf.sprintf "Merge: %s is for n = %d but %s is for n = %d" p h.Layout.n p0
               h0.Layout.n);
        if h.Layout.content <> h0.Layout.content then
          failwith (Printf.sprintf "Merge: %s and %s hold different store content" p p0);
        if h.Layout.chunk_size <> h0.Layout.chunk_size then
          failwith (Printf.sprintf "Merge: %s and %s use different chunk sizes" p p0);
        let _, k' = shard_of p h in
        if k' <> k then
          failwith
            (Printf.sprintf "Merge: %s belongs to a %d-way split but %s to a %d-way one" p k' p0 k))
      rest;
    if List.length vols <> k then
      failwith (Printf.sprintf "Merge: %d-way split but %d volume(s) given" k (List.length vols));
    let sorted = List.sort (fun (_, a) (_, b) -> compare a.Layout.shard b.Layout.shard) vols in
    let rec check expect = function
      | [] -> ()
      | (p, h) :: tl ->
        let i, _ = shard_of p h in
        if i < expect then
          failwith (Printf.sprintf "Merge: shard %d/%d appears more than once (%s)" i k p)
        else if i > expect then failwith (Printf.sprintf "Merge: shard %d/%d is missing" expect k)
        else check (expect + 1) tl
    in
    check 1 sorted;
    (sorted, { h0 with Layout.shard = None })

let merge ?(force = false) ?(report = ignore) ~paths ~out () =
  let start = Unix.gettimeofday () in
  let vols, header =
    family
      (List.map
         (fun p ->
           match header_of p with
           | Some h -> (p, h)
           | None -> failwith (Printf.sprintf "Merge: %s is not an NFATLAS1 store" p))
         paths)
  in
  let k = List.length vols in
  if Sys.file_exists out && not force then
    failwith (Printf.sprintf "%s already exists (pass force to overwrite)" out);
  (* strict per-volume verification up front, one frame resident at a
     time: a damaged shard must name itself (pinned to the chunk) before
     the output file is even created *)
  List.iter
    (fun (p, _) ->
      match Reader.verify ~path:p with
      | Ok _ -> ()
      | Error msg -> failwith (Printf.sprintf "Merge: %s: %s" p msg))
    vols;
  let writer = Writer.create ~path:out ~header in
  match
    let chunk_size = header.Layout.chunk_size in
    let queue = Queue.create () in
    let emit () =
      Writer.append_chunk writer
        (Array.init (min chunk_size (Queue.length queue)) (fun _ -> Queue.pop queue))
    in
    (* only ever emit full chunks mid-stream; a short chunk is legal
       solely at the very end, exactly as in a live build *)
    let fold_in recs =
      Array.iter (fun r -> Queue.add r queue) recs;
      while Queue.length queue >= chunk_size do
        emit ()
      done
    in
    List.iter
      (fun (p, _) ->
        let scan, () =
          In_channel.with_open_bin p (fun ic ->
              Reader.walk ic ~init:() (Reader.Records (fun _ () _ recs -> fold_in recs)))
        in
        Option.iter
          (fun msg -> failwith (Printf.sprintf "Merge: %s: %s" p msg))
          scan.Reader.failure;
        report (Printf.sprintf "%s: %d records folded in" p scan.Reader.records))
      vols;
    if Queue.length queue > 0 then emit ();
    Writer.finalize writer
  with
  | () ->
    (match Reader.verify ~path:out with
    | Ok _ -> ()
    | Error msg -> failwith (Printf.sprintf "Merge: merged store %s failed verification: %s" out msg));
    {
      path = out;
      n = header.Layout.n;
      game = Build.game_of_content header.Layout.content;
      shards = k;
      chunks = writer.Writer.chunks;
      records = writer.Writer.records;
      seconds = Unix.gettimeofday () -. start;
    }
  | exception e ->
    Writer.abort writer;
    raise e

let merge_dir ?force ?report ~dir ~out () =
  match volumes ~dir with
  | [] -> failwith (Printf.sprintf "Merge: no shard volumes found in %s" dir)
  | vols -> merge ?force ?report ~paths:(List.map fst vols) ~out ()
