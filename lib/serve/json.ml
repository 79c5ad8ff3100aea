(* Minimal JSON values for the nf_serve wire protocol.

   The toolchain this library builds against has no JSON package, and
   the protocol needs only a small, deterministic subset: objects,
   arrays, strings, machine integers, booleans.  The printer emits a
   canonical single-line form (object fields in the order given, no
   insignificant whitespace), so a response's bytes are a pure function
   of the value — the property the differential harness compares on.
   The parser accepts standard JSON, including escapes and floats, so a
   foreign client is not rejected on cosmetic grounds. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Slices of slices

and slices = { slab : Bytes.t; width : int; count : int; iter : (int -> unit) -> unit }

exception Parse_error of string

(* ---------------- printing ---------------- *)

(* bytes [pos, pos + len) of [b] as a JSON string *)
let add_escaped_sub buf b pos len =
  Buffer.add_char buf '"';
  for k = pos to pos + len - 1 do
    match Bytes.get b k with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let add_escaped buf s = add_escaped_sub buf (Bytes.unsafe_of_string s) 0 (String.length s)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* %.17g round-trips every double; trailing ".0" keeps it a float *)
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  | Str s -> add_escaped buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      kvs;
    Buffer.add_char buf '}'
  | Slices { slab; width; iter; _ } ->
    Buffer.add_char buf '[';
    let first = ref true in
    iter (fun i ->
        if !first then first := false else Buffer.add_char buf ',';
        add_escaped_sub buf slab (i * width) width);
    Buffer.add_char buf ']'

(* the rendered length bar escapes and scalars, to size the buffer *)
let rec size_hint = function
  | Null | Bool _ | Int _ | Float _ -> 0
  | Str s -> String.length s + 3
  | List xs -> List.fold_left (fun acc x -> acc + size_hint x) 2 xs
  | Obj kvs -> List.fold_left (fun acc (k, v) -> acc + String.length k + size_hint v + 4) 2 kvs
  | Slices s -> 2 + (s.count * (s.width + 3))

let render v ~newline =
  let buf = Buffer.create (size_hint v + 64) in
  add buf v;
  if newline then Buffer.add_char buf '\n';
  Buffer.contents buf

let to_string v = render v ~newline:false
let to_line v = render v ~newline:true

(* ---------------- parsing ---------------- *)

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
    st.pos <- st.pos + 1;
    c
  | None -> fail "unexpected end of input at byte %d" st.pos

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      st.pos <- st.pos + 1;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  let got = next st in
  if got <> c then fail "expected %C, got %C at byte %d" c got (st.pos - 1)

let literal st word value =
  String.iter (fun c -> expect st c) word;
  value

(* UTF-8 encode one scalar value (the \uXXXX path) *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit () =
    match next st with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> fail "bad hex digit %C at byte %d" c (st.pos - 1)
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next st with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let u = hex4 st in
        if u >= 0xD800 && u <= 0xDBFF && st.pos + 1 < String.length st.s
           && st.s.[st.pos] = '\\' && st.s.[st.pos + 1] = 'u'
        then begin
          st.pos <- st.pos + 2;
          let lo = hex4 st in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          else begin
            add_utf8 buf u;
            add_utf8 buf lo
          end
        end
        else add_utf8 buf u
      | c -> fail "bad escape \\%C at byte %d" c (st.pos - 1));
      loop ()
    | c -> Buffer.add_char buf c; loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c when is_num_char c -> st.pos <- st.pos + 1; true | _ -> false do
    ()
  done;
  let tok = String.sub st.s start (st.pos - start) in
  let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
  if floaty then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail "bad number %S at byte %d" tok start
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number %S at byte %d" tok start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at byte %d" st.pos
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        st.pos <- st.pos + 1;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        st.pos <- st.pos + 1;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | Some _ -> parse_number st

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing bytes after value at byte %d" st.pos;
  v

(* ---------------- accessors ---------------- *)

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None
let to_str = function Str s -> Some s | _ -> None
let slice_strings { slab; width; iter; _ } =
  let acc = ref [] in
  iter (fun i -> acc := Bytes.sub_string slab (i * width) width :: !acc);
  List.rev !acc

let to_list = function
  | List xs -> Some xs
  | Slices s -> Some (List.map (fun g -> Str g) (slice_strings s))
  | _ -> None
