type scan = {
  header : Layout.header;
  chunks : int;
  records : int;
  data_end : int;
  complete : bool;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Tolerant prefix scan: the longest valid prefix [header; chunk 0; ...;
   chunk k-1] is identified and anything after it — a partially written
   chunk from a killed build, or trailing corruption — is ignored.  The
   chunks themselves are still CRC-verified and fully parsed, so the
   prefix a resume continues from is known-good. *)
let scan_string s =
  let header = Layout.decode_header s in
  let data_start = Layout.header_bytes header in
  let len = String.length s in
  let pos = ref data_start in
  let data_end = ref data_start in
  let chunks = ref 0 in
  let records = ref 0 in
  let complete = ref false in
  let stop = ref false in
  while not !stop do
    if !pos >= len then stop := true
    else if Layout.is_footer_at s !pos then begin
      (match Layout.decode_footer s ~pos:!pos with
      | total_chunks, total_records, next ->
        if total_chunks = !chunks && total_records = !records && next = len then complete := true
      | exception Layout.Corrupt _ -> ());
      stop := true
    end
    else
      match Layout.decode_chunk ~content:header.Layout.content s ~pos:!pos with
      | index, recs, next ->
        if index <> !chunks then stop := true
        else begin
          chunks := !chunks + 1;
          records := !records + Array.length recs;
          pos := next;
          data_end := next
        end
      | exception Layout.Corrupt _ -> stop := true
  done;
  { header; chunks = !chunks; records = !records; data_end = !data_end; complete = !complete }

let scan ~path = scan_string (read_file path)

(* Strict verification: every byte of the file must be accounted for by a
   valid header, consecutively numbered CRC-clean chunks, and a footer
   whose totals match.  Each record's graph must decode to a graph6
   string of the header's order, so a flipped byte anywhere — header,
   chunk framing, chunk body, footer — is reported, pinned to the
   offending chunk index and the byte offset its frame starts at (a
   damaged multi-gigabyte shard volume is useless to re-transfer whole;
   the message names the region to refetch). *)
let verify_string s =
  try
    let header = Layout.decode_header s in
    let len = String.length s in
    let pos = ref (Layout.header_bytes header) in
    let chunks = ref 0 in
    let records = ref 0 in
    while !pos < len && not (Layout.is_footer_at s !pos) do
      let frame_start = !pos in
      let in_chunk fmt =
        Printf.ksprintf
          (fun m ->
            raise
              (Layout.Corrupt
                 (Printf.sprintf "chunk %d (frame at byte %d): %s" !chunks frame_start m)))
          fmt
      in
      let index, recs, next =
        match Layout.decode_chunk ~content:header.Layout.content s ~pos:!pos with
        | decoded -> decoded
        | exception Layout.Corrupt msg -> in_chunk "%s" msg
      in
      if index <> !chunks then in_chunk "chunk %d out of sequence (expected %d)" index !chunks;
      if Array.length recs = 0 then in_chunk "chunk is empty";
      if Array.length recs > header.Layout.chunk_size then
        in_chunk "chunk holds %d records, above the declared chunk size %d" (Array.length recs)
          header.Layout.chunk_size;
      Array.iter
        (fun r ->
          match Nf_graph.Graph6.decode r.Layout.graph6 with
          | g ->
            if Nf_graph.Graph.order g <> header.Layout.n then
              in_chunk "record has order %d, store is for n = %d" (Nf_graph.Graph.order g)
                header.Layout.n
          | exception Invalid_argument msg -> in_chunk "bad graph6: %s" msg)
        recs;
      chunks := !chunks + 1;
      records := !records + Array.length recs;
      pos := next
    done;
    if !pos >= len then raise (Layout.Corrupt "missing footer (incomplete build?)");
    let total_chunks, total_records, next = Layout.decode_footer s ~pos:!pos in
    if total_chunks <> !chunks then
      raise
        (Layout.Corrupt
           (Printf.sprintf "footer declares %d chunks, file holds %d" total_chunks !chunks));
    if total_records <> !records then
      raise
        (Layout.Corrupt
           (Printf.sprintf "footer declares %d records, file holds %d" total_records !records));
    if next <> len then
      raise (Layout.Corrupt (Printf.sprintf "%d trailing bytes after footer" (len - next)));
    Ok { header; chunks = !chunks; records = !records; data_end = !pos; complete = true }
  with Layout.Corrupt msg -> Error msg

let verify ~path =
  match read_file path with
  | s -> verify_string s
  | exception Sys_error msg -> Error msg

(* --- streaming (channel) access --------------------------------------

   Constant-memory counterparts of the whole-file string paths above:
   the store is pulled through the channel one frame at a time, so an
   n=10-scale volume streams through a merge or a verification without
   ever being resident as a string.  Strictness matches [verify]: every
   chunk is CRC-checked by [Layout.decode_chunk] as it passes, chunks
   must be consecutively numbered, the footer totals must match the
   stream, and nothing may follow the footer. *)

let really_read ic len what =
  match In_channel.really_input_string ic len with
  | Some s -> s
  | None -> raise (Layout.Corrupt (Printf.sprintf "unexpected end of file reading %s" what))

(* Two-step header pull: the fixed 24 bytes announce (via flag bit 3)
   whether a parameter extension section follows, and its own first two
   bytes give the length of the rest.  [decode_header] then validates the
   reassembled whole, CRCs included. *)
let read_header ic =
  let fixed = really_read ic Layout.header_size "header" in
  if not (Layout.header_has_params fixed) then Layout.decode_header fixed
  else begin
    let len_bytes = really_read ic 2 "parameter section length" in
    let len = String.get_uint16_le len_bytes 0 in
    let rest = really_read ic (len + 4) "parameter section" in
    Layout.decode_header (fixed ^ len_bytes ^ rest)
  end

let fold_chunks ~path ~init f =
  In_channel.with_open_bin path (fun ic ->
      let header = read_header ic in
      let content = header.Layout.content in
      let chunks = ref 0 in
      let records = ref 0 in
      let acc = ref init in
      let finished = ref false in
      while not !finished do
        let magic = really_read ic 4 "frame magic" in
        if magic = Layout.footer_magic then begin
          let footer = magic ^ really_read ic (Layout.footer_size - 4) "footer" in
          let total_chunks, total_records, _ = Layout.decode_footer footer ~pos:0 in
          if total_chunks <> !chunks then
            raise
              (Layout.Corrupt
                 (Printf.sprintf "footer declares %d chunks, stream held %d" total_chunks !chunks));
          if total_records <> !records then
            raise
              (Layout.Corrupt
                 (Printf.sprintf "footer declares %d records, stream held %d" total_records
                    !records));
          (match In_channel.input_char ic with
          | Some _ -> raise (Layout.Corrupt "trailing bytes after footer")
          | None -> ());
          finished := true
        end
        else if magic = Layout.chunk_magic then begin
          let head = really_read ic (Layout.chunk_header_size - 4) "chunk header" in
          (* body length sits at frame offset 12 = offset 8 of [head] *)
          let body_len = Int32.to_int (String.get_int32_le head 8) land 0xFFFFFFFF in
          let frame = magic ^ head ^ really_read ic (body_len + 4) "chunk body" in
          let index, recs, _ = Layout.decode_chunk ~content frame ~pos:0 in
          if index <> !chunks then
            raise
              (Layout.Corrupt
                 (Printf.sprintf "chunk %d out of sequence (expected %d)" index !chunks));
          acc := f header !acc index recs;
          chunks := !chunks + 1;
          records := !records + Array.length recs
        end
        else
          raise
            (Layout.Corrupt
               (Printf.sprintf "bad frame magic after chunk %d (incomplete build?)" !chunks))
      done;
      (header, !acc, !chunks, !records))

let verify_stream ~path =
  try
    let header, (), chunks, records =
      fold_chunks ~path ~init:() (fun header () index recs ->
          let in_chunk fmt =
            Printf.ksprintf
              (fun m -> raise (Layout.Corrupt (Printf.sprintf "chunk %d: %s" index m)))
              fmt
          in
          if Array.length recs = 0 then in_chunk "chunk is empty";
          if Array.length recs > header.Layout.chunk_size then
            in_chunk "chunk holds %d records, above the declared chunk size %d" (Array.length recs)
              header.Layout.chunk_size;
          Array.iter
            (fun r ->
              match Nf_graph.Graph6.decode r.Layout.graph6 with
              | g ->
                if Nf_graph.Graph.order g <> header.Layout.n then
                  in_chunk "record has order %d, store is for n = %d" (Nf_graph.Graph.order g)
                    header.Layout.n
              | exception Invalid_argument msg -> in_chunk "bad graph6: %s" msg)
            recs)
    in
    let data_end = (Unix.stat path).Unix.st_size - Layout.footer_size in
    Ok { header; chunks; records; data_end; complete = true }
  with
  | Layout.Corrupt msg -> Error msg
  | Sys_error msg -> Error msg
