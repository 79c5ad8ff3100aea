type scan = {
  header : Layout.header;
  chunks : int;
  records : int;
  data_end : int;
  failure : string option;
}

type frame = { offset : int; length : int; first : int; count : int }

type 'a visit =
  | Frames of ('a -> frame -> 'a)
  | Records of (Layout.header -> 'a -> frame -> Layout.record array -> 'a)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Layout.Corrupt m)) fmt

let pull ic len what =
  match In_channel.really_input_string ic len with
  | Some s -> s
  | None -> corrupt "unexpected end of file reading %s" what

(* The one header read.  The fixed 24 bytes announce (flag bit 3)
   whether a parameter extension section follows, and its own first two
   bytes size the rest; [decode_header] then validates the reassembled
   whole, CRCs included. *)
let input_header ic =
  let magic_len = String.length Layout.magic in
  match In_channel.really_input_string ic magic_len with
  | Some m when m = Layout.magic ->
    let fixed = m ^ pull ic (Layout.header_size - magic_len) "header" in
    let ext =
      if not (Layout.header_has_params fixed) then ""
      else
        let len = pull ic 2 "parameter section length" in
        len ^ pull ic (String.get_uint16_le len 0 + 4) "parameter section"
    in
    Some (Layout.decode_header (fixed ^ ext))
  | _ -> None

let header ~path = In_channel.with_open_bin path input_header

exception Incomplete

(* The one frame loop.  Every length is checked against the bytes left
   in the file before anything is read, and the only allocation sized by
   file contents is the current frame, whose record count
   [Layout.decode_chunk_header] has already bounded by its body length. *)
let walk ic ~init visit =
  let header =
    match input_header ic with
    | Some h -> h
    | None -> corrupt "bad magic (not an nf_store file)"
  in
  let size = Int64.to_int (In_channel.length ic) in
  let acc = ref init in
  let chunks = ref 0 in
  let records = ref 0 in
  let pos = ref (Layout.header_bytes header) in
  let need len = if !pos + len > size then raise Incomplete in
  let rec step () =
    need 4;
    let magic = pull ic 4 "frame magic" in
    if magic = Layout.footer_magic then begin
      need Layout.footer_size;
      let footer = magic ^ pull ic (Layout.footer_size - 4) "footer" in
      let total_chunks, total_records, _ = Layout.decode_footer footer ~pos:0 in
      if total_chunks <> !chunks then
        corrupt "footer declares %d chunks, file holds %d" total_chunks !chunks;
      if total_records <> !records then
        corrupt "footer declares %d records, file holds %d" total_records !records;
      let trailing = size - !pos - Layout.footer_size in
      if trailing > 0 then corrupt "%d trailing bytes after footer" trailing
    end
    else begin
      if magic <> Layout.chunk_magic then corrupt "bad frame magic";
      need Layout.chunk_header_size;
      let head = magic ^ pull ic (Layout.chunk_header_size - 4) "chunk header" in
      let index, count, body_len = Layout.decode_chunk_header head ~pos:0 in
      if index <> !chunks then corrupt "chunk %d out of sequence (expected %d)" index !chunks;
      let length = Layout.chunk_header_size + body_len + 4 in
      need length;
      let frame = { offset = !pos; length; first = !records; count } in
      (match visit with
      | Frames f ->
        In_channel.seek ic (Int64.of_int (!pos + length));
        acc := f !acc frame
      | Records f ->
        let frame_bytes = head ^ pull ic (body_len + 4) "chunk body" in
        let _, recs, _ = Layout.decode_chunk ~content:header.Layout.content frame_bytes ~pos:0 in
        acc := f header !acc frame recs);
      chunks := !chunks + 1;
      records := !records + count;
      pos := !pos + length;
      step ()
    end
  in
  let failure =
    match step () with
    | () -> None
    | exception Incomplete ->
      Some
        (Printf.sprintf "incomplete store (%d records in %d complete chunks; resume the build)"
           !records !chunks)
    | exception Layout.Corrupt m ->
      Some (Printf.sprintf "chunk %d (frame at byte %d): %s" !chunks !pos m)
  in
  ({ header; chunks = !chunks; records = !records; data_end = !pos; failure }, !acc)

let scan ~path =
  fst (In_channel.with_open_bin path (fun ic -> walk ic ~init:() (Records (fun _ () _ _ -> ()))))

(* [verify]'s record checks, on top of the walk's framing and CRCs *)
let check_records header () frame recs =
  if frame.count = 0 then corrupt "chunk is empty";
  if frame.count > header.Layout.chunk_size then
    corrupt "chunk holds %d records, above the declared chunk size %d" frame.count
      header.Layout.chunk_size;
  Array.iter
    (fun r ->
      match Nf_graph.Graph6.decode r.Layout.graph6 with
      | g ->
        if Nf_graph.Graph.order g <> header.Layout.n then
          corrupt "record has order %d, store is for n = %d" (Nf_graph.Graph.order g)
            header.Layout.n
      | exception Invalid_argument msg -> corrupt "bad graph6: %s" msg)
    recs

let verify ~path =
  match In_channel.with_open_bin path (fun ic -> walk ic ~init:() (Records check_records)) with
  | ({ failure = None; _ } as scan), () -> Ok scan
  | { failure = Some msg; _ }, () -> Error msg
  | exception (Layout.Corrupt msg | Sys_error msg) -> Error msg
