(* The `netform serve` daemon: a select-loop server over one Service.

   Concurrency model: the single event loop owns every socket; nothing
   but the loop reads or writes an fd.  Each select round accepts new
   connections, drains readable sockets into per-connection line
   buffers, then dispatches *all* complete request lines of the round as
   one batch through [Nf_util.Pool.parallel_map] — so requests from
   concurrent clients are evaluated concurrently on the pool domains
   (the Service's structures are built for that), while each
   connection's responses stay in its own request order (parallel_map
   preserves input order).  Responses are queued per connection and
   flushed as select reports writability.

   Shutdown: SIGINT/SIGTERM set an atomic stop flag (the EINTR-tolerant
   select polls it at 0.2s granularity), and the `shutdown` op sets the
   same flag once its response is queued.  Either way the loop stops
   accepting and reading, flushes every pending response, closes all
   sockets, removes the unix-socket path, and restores the previous
   signal dispositions — a clean exit, never an abort mid-response. *)

type addr = Unix_socket of string | Tcp of int

let addr_to_string = function
  | Unix_socket p -> p
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

(* ---------------- request evaluation ---------------- *)

let eval service req =
  let open Protocol in
  match req with
  | Stable_at { game; alpha } ->
    let game = match game with Some g -> g | None -> Service.default_game service in
    let graphs = Service.stable_slices service ~game ~alpha in
    ok_response
      [
        ("op", Json.Str "stable-at");
        ("game", Json.Str game);
        ("alpha", Json.Str (Nf_util.Rat.to_string alpha));
        ("count", Json.Int graphs.Json.count);
        ("graphs", Json.Slices graphs);
      ]
  | Entry { graph6 } -> (
    match Service.find_entry service ~graph6 with
    | None -> error_response (Printf.sprintf "no record for graph6 %S" graph6)
    | Some (id, r) ->
      ok_response
        [
          ("op", Json.Str "entry");
          ("id", Json.Int id);
          ("graph6", Json.Str graph6);
          ( "regions",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (Service.region_strings service r))
          );
        ])
  | Figure_points { grid } ->
    ok_response [ ("op", Json.Str "figure-points"); ("csv", Json.Str (Service.figure_csv service ?grid ())) ]
  | Export -> ok_response [ ("op", Json.Str "export"); ("csv", Json.Str (Nf_analysis.Dataset.to_csv (Service.source service))) ]
  | Stats ->
    let s = Service.stats service in
    let per_game kvs = Json.Obj (List.map (fun (g, k) -> (g, Json.Int k)) kvs) in
    ok_response
      [
        ("op", Json.Str "stats");
        ("n", Json.Int (Service.n service));
        ("game", Json.Str (Service.game service));
        ("records", Json.Int s.Service.records);
        ("chunks", Json.Int s.Service.chunks);
        ("volumes", Json.Int s.Service.volumes);
        ("cached_chunks", Json.Int s.Service.cached_chunks);
        ("indexed_games", per_game s.Service.indexed_games);
        ("regions", per_game s.Service.regions);
        ("resident_bytes", Json.Int s.Service.resident_bytes);
        ("figure_cache_entries", Json.Int s.Service.figure_cache_entries);
        ("figure_cache_hits", Json.Int s.Service.figure_cache_hits);
        ("requests", Json.Int s.Service.requests);
      ]
  | Health ->
    ok_response
      [
        ("op", Json.Str "health");
        ("status", Json.Str "serving");
        ("n", Json.Int (Service.n service));
        ("game", Json.Str (Service.game service));
        ("records", Json.Int (Service.length service));
      ]
  | Shutdown -> ok_response [ ("op", Json.Str "shutdown"); ("status", Json.Str "shutting-down") ]

(* one request in, one response out: a failed evaluation is an error
   response, never an exception *)
let respond service req =
  match eval service req with
  | resp -> resp
  | exception (Invalid_argument msg | Failure msg) -> Protocol.error_response msg
  | exception Nf_store.Layout.Corrupt msg -> Protocol.error_response ("store corrupt: " ^ msg)

(* one wire line in, one wire line out; only a well-formed `shutdown`
   stops the server *)
let handle_line service line =
  Service.tick_request service;
  match Protocol.request_of_line line with
  | Error msg -> (Json.to_line (Protocol.error_response msg), `Continue)
  | Ok req ->
    ( Json.to_line (respond service req),
      match req with Protocol.Shutdown -> `Shutdown | _ -> `Continue )

(* ---------------- the event loop ---------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outq : string Queue.t;  (* response lines not yet fully written *)
  mutable sent : int;  (* bytes of the head line already written *)
}

(* split the complete lines off a connection buffer, leaving the last
   partial line in place *)
let take_lines c =
  let s = Buffer.contents c.inbuf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf s (last + 1) (String.length s - last - 1);
    String.split_on_char '\n' (String.sub s 0 last)

let serve ?(report = ignore) ~addr ~path () =
  let service = Service.create ~path () in
  let listen_fd, cleanup_addr =
    match addr with
    | Unix_socket sp ->
      if Sys.file_exists sp then Sys.remove sp;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX sp);
      (fd, fun () -> try Sys.remove sp with Sys_error _ -> ())
    | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (fd, ignore)
  in
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let stop = Atomic.make false in
  let install sg =
    let old = Sys.signal sg (Sys.Signal_handle (fun _ -> Atomic.set stop true)) in
    fun () -> Sys.set_signal sg old
  in
  let restores = [ install Sys.sigint; install Sys.sigterm; install Sys.sigpipe ] in
  (* sigpipe must not kill the daemon when a client vanishes mid-write;
     the handler above only sets the stop flag for int/term, but for
     pipe we want ignore semantics *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let served = ref 0 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let rec accept_all () =
    match Unix.accept listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace conns fd { fd; inbuf = Buffer.create 256; outq = Queue.create (); sent = 0 };
      accept_all ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  let read_conn c =
    let bytes = Bytes.create 4096 in
    match Unix.read c.fd bytes 0 4096 with
    | 0 -> close_conn c
    | k -> Buffer.add_subbytes c.inbuf bytes 0 k
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn c
  in
  (* write queued lines straight from their strings until the socket
     would block *)
  let rec flush_conn c =
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some line -> (
      let pending = String.length line - c.sent in
      match Unix.write_substring c.fd line c.sent pending with
      | k when k = pending ->
        ignore (Queue.pop c.outq);
        c.sent <- 0;
        flush_conn c
      | k -> c.sent <- c.sent + k
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn c)
  in
  report
    (Printf.sprintf "serving %s (n=%d, game=%s, %d records) on %s" path (Service.n service)
       (Service.game service) (Service.length service) (addr_to_string addr));
  let draining = ref false in
  let finished = ref false in
  (try
     while not !finished do
       if Atomic.get stop then draining := true;
       let conn_list = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
       let writable = List.filter (fun c -> not (Queue.is_empty c.outq)) conn_list in
       if !draining && writable = [] then finished := true
       else begin
         let rds = if !draining then [] else listen_fd :: List.map (fun c -> c.fd) conn_list in
         let wrs = List.map (fun c -> c.fd) writable in
         match Unix.select rds wrs [] 0.2 with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | rready, wready, _ ->
           if List.mem listen_fd rready then accept_all ();
           List.iter
             (fun fd ->
               if fd <> listen_fd then
                 match Hashtbl.find_opt conns fd with Some c -> read_conn c | None -> ())
             rready;
           (* gather this round's complete lines and evaluate them as
              one concurrent batch on the pool domains *)
           let batch =
             Hashtbl.fold (fun _ c acc -> List.map (fun l -> (c, l)) (take_lines c) @ acc) conns []
           in
           if batch <> [] then begin
             let results = Nf_util.Pool.parallel_map (fun (_, line) -> handle_line service line) batch in
             List.iter2
               (fun (c, _) (resp, action) ->
                 Queue.push resp c.outq;
                 incr served;
                 match action with `Shutdown -> Atomic.set stop true | `Continue -> ())
               batch results
           end;
           List.iter
             (fun fd -> match Hashtbl.find_opt conns fd with Some c -> flush_conn c | None -> ())
             wready
       end
     done
   with e ->
     (* tear down sockets before re-raising: the daemon must never leak
        a bound socket path *)
     Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     cleanup_addr ();
     List.iter (fun restore -> restore ()) restores;
     raise e);
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  cleanup_addr ();
  List.iter (fun restore -> restore ()) restores;
  report (Printf.sprintf "shutdown after %d request(s)" !served)
