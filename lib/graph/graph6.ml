(* Format reference: https://users.cecs.anu.edu.au/~bdm/data/formats.txt
   For n <= 62 the header is one byte [n + 63]; for 63 <= n <= 258047 it is
   '~' followed by three bytes carrying n in 18 big-endian bits, six per
   byte, each offset by 63 (the standard multi-byte order header).  The
   body packs the upper triangle of the adjacency matrix in column order
   (j from 1, i < j), six bits per byte, each byte offset by 63. *)

let max_order = 258047 (* 2^18 - 1: the 3-byte header ceiling *)

let header_length n = if n <= 62 then 1 else 4
let encoded_length n = header_length n + (((n * (n - 1) / 2) + 5) / 6)

let add_header buf n =
  if n <= 62 then Buffer.add_char buf (Char.chr (n + 63))
  else begin
    Buffer.add_char buf '~';
    Buffer.add_char buf (Char.chr (((n lsr 12) land 0x3F) + 63));
    Buffer.add_char buf (Char.chr (((n lsr 6) land 0x3F) + 63));
    Buffer.add_char buf (Char.chr ((n land 0x3F) + 63))
  end

let encode g =
  let n = Graph.order g in
  if n > max_order then
    invalid_arg
      (Printf.sprintf "Graph6.encode: order %d > %d (3-byte graph6 header limit)" n
         max_order);
  let bits = n * (n - 1) / 2 in
  let buf = Buffer.create (encoded_length n) in
  add_header buf n;
  let acc = ref 0
  and nacc = ref 0 in
  let flush_byte () =
    Buffer.add_char buf (Char.chr (!acc + 63));
    acc := 0;
    nacc := 0
  in
  let push bit =
    acc := (!acc lsl 1) lor bit;
    incr nacc;
    if !nacc = 6 then flush_byte ()
  in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      push (if Graph.has_edge g i j then 1 else 0)
    done
  done;
  if bits mod 6 <> 0 then begin
    acc := !acc lsl (6 - !nacc);
    nacc := 6;
    flush_byte ()
  end;
  Buffer.contents buf

let decode s =
  let len = String.length s in
  if len = 0 then invalid_arg "Graph6.decode: empty";
  let n =
    if s.[0] <> '~' then begin
      let n = Char.code s.[0] - 63 in
      if n < 0 || n > 62 then invalid_arg "Graph6.decode: unsupported order";
      n
    end
    else begin
      if len < 4 then invalid_arg "Graph6.decode: truncated multi-byte order header";
      if s.[1] = '~' then
        invalid_arg
          (Printf.sprintf "Graph6.decode: 6-byte order header (order > %d) unsupported"
             max_order);
      let part k =
        let c = Char.code s.[k] - 63 in
        if c < 0 || c > 0x3F then
          invalid_arg "Graph6.decode: bad multi-byte order header";
        c
      in
      let n = (part 1 lsl 12) lor (part 2 lsl 6) lor part 3 in
      if n <= 62 then
        invalid_arg "Graph6.decode: non-canonical multi-byte header for order <= 62";
      n
    end
  in
  let hdr = header_length n in
  let bits = n * (n - 1) / 2 in
  if len <> encoded_length n then invalid_arg "Graph6.decode: wrong length";
  (* validate the whole body up front: every byte must be printable
     63..126 and the padding bits of the final byte must be zero, so
     decode accepts exactly the strings encode can produce (and
     [encode (decode s) = s] whenever decode succeeds) *)
  for k = hdr to len - 1 do
    let c = Char.code s.[k] in
    if c < 63 || c > 126 then
      invalid_arg (Printf.sprintf "Graph6.decode: byte %d (0x%02x) outside printable 63..126" k c)
  done;
  let pad = (6 - (bits mod 6)) mod 6 in
  if pad > 0 && (Char.code s.[len - 1] - 63) land ((1 lsl pad) - 1) <> 0 then
    invalid_arg "Graph6.decode: nonzero padding bits";
  let bit k = (Char.code s.[hdr + (k / 6)] - 63) lsr (5 - (k mod 6)) land 1 in
  Graph.build n (fun add ->
      let k = ref 0 in
      for j = 1 to n - 1 do
        for i = 0 to j - 1 do
          if bit !k = 1 then add i j;
          incr k
        done
      done)
