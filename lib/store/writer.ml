(* Append-only store writer with crash-safe publication.

   A build in progress lives at [path ^ ".part"]; chunks are appended and
   flushed one at a time, so a build killed at any moment (even kill -9)
   leaves a part file whose longest valid prefix is exactly the chunks
   whose appends completed — {!Reader.scan} finds it and {!reopen}
   truncates the torn tail away.  Only {!finalize} writes the footer,
   fsyncs, and atomically renames the part file onto the final path, so a
   file at [path] is always a complete, verified store. *)

type t = {
  oc : out_channel;
  final_path : string;
  part : string;
  header : Layout.header;
  mutable chunks : int;
  mutable records : int;
  mutable closed : bool;
}

let part_path path = path ^ ".part"

let create ~path ~header =
  let part = part_path path in
  let oc = open_out_bin part in
  output_string oc (Layout.encode_header header);
  flush oc;
  { oc; final_path = path; part; header; chunks = 0; records = 0; closed = false }

let reopen ~path =
  let part = part_path path in
  let scan = Reader.scan ~path:part in
  if scan.Reader.failure = None then
    invalid_arg "Writer.reopen: part file already holds a complete store";
  (* drop the torn tail, then append from the end of the valid prefix *)
  let fd = Unix.openfile part [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd scan.Reader.data_end;
  ignore (Unix.lseek fd scan.Reader.data_end Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  ( {
      oc;
      final_path = path;
      part;
      header = scan.Reader.header;
      chunks = scan.Reader.chunks;
      records = scan.Reader.records;
      closed = false;
    },
    scan )

let append_chunk t records =
  if t.closed then invalid_arg "Writer.append_chunk: writer is closed";
  if Array.length records = 0 then invalid_arg "Writer.append_chunk: empty chunk";
  output_string t.oc
    (Layout.encode_chunk ~index:t.chunks ~content:t.header.Layout.content records);
  flush t.oc;
  t.chunks <- t.chunks + 1;
  t.records <- t.records + Array.length records

let finalize t =
  if t.closed then invalid_arg "Writer.finalize: writer is closed";
  output_string t.oc (Layout.encode_footer ~chunks:t.chunks ~records:t.records);
  flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  close_out t.oc;
  t.closed <- true;
  Sys.rename t.part t.final_path

let abort t =
  if not t.closed then begin
    close_out_noerr t.oc;
    t.closed <- true
  end
