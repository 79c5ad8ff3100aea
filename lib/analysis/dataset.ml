module Graph = Nf_graph.Graph
module Interval = Nf_util.Interval
module Rat = Nf_util.Rat
module Layout = Nf_store.Layout

type entry = {
  graph : Graph.t;
  bcg_stable : Interval.t;
  ucg_nash : Interval.Union.t option;
}

(* --- interval syntax ---------------------------------------------------- *)

let rat_to_string r =
  if Rat.is_integer r then string_of_int (Rat.num r)
  else Printf.sprintf "%d/%d" (Rat.num r) (Rat.den r)

let endpoint_to_string = function
  | Interval.Neg_inf -> "-inf"
  | Interval.Pos_inf -> "inf"
  | Interval.Finite r -> rat_to_string r

let interval_to_string i =
  match Interval.bounds i with
  | None -> "empty"
  | Some (lo, lo_closed, hi, hi_closed) ->
    Printf.sprintf "%c%s;%s%c"
      (if lo_closed then '[' else '(')
      (endpoint_to_string lo) (endpoint_to_string hi)
      (if hi_closed then ']' else ')')

let int_field what v =
  match int_of_string_opt v with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Dataset.rat_of_string: bad %s %S" what v)

let rat_of_string s =
  match String.index_opt s '/' with
  | Some k ->
    let num = int_field "numerator" (String.sub s 0 k)
    and den = int_field "denominator" (String.sub s (k + 1) (String.length s - k - 1)) in
    if den = 0 then invalid_arg (Printf.sprintf "Dataset.rat_of_string: zero denominator in %S" s);
    Rat.make num den
  | None -> Rat.of_int (int_field "integer" s)

let endpoint_of_string = function
  | "-inf" -> Interval.Neg_inf
  | "inf" | "+inf" -> Interval.Pos_inf
  | s -> Interval.Finite (rat_of_string s)

let interval_of_string s =
  if s = "empty" then Interval.empty
  else begin
    let len = String.length s in
    if len < 5 then invalid_arg "Dataset.interval_of_string: too short";
    let lo_closed =
      match s.[0] with
      | '[' -> true
      | '(' -> false
      | _ -> invalid_arg "Dataset.interval_of_string: bad opening bracket"
    in
    let hi_closed =
      match s.[len - 1] with
      | ']' -> true
      | ')' -> false
      | _ -> invalid_arg "Dataset.interval_of_string: bad closing bracket"
    in
    let body = String.sub s 1 (len - 2) in
    match String.split_on_char ';' body with
    | [ lo; hi ] ->
      Interval.make ~lo:(endpoint_of_string lo) ~lo_closed ~hi:(endpoint_of_string hi)
        ~hi_closed
    | _ -> invalid_arg "Dataset.interval_of_string: expected two endpoints"
  end

let union_to_string u =
  match Interval.Union.to_list u with
  | [] -> "empty"
  | pieces -> String.concat "|" (List.map interval_to_string pieces)

let union_of_string s =
  if s = "empty" then Interval.Union.empty
  else Interval.Union.of_list (List.map interval_of_string (String.split_on_char '|' s))

(* --- CSV ---------------------------------------------------------------- *)

let header = "graph6,n,m,bcg_stable,ucg_nash"

(* the header and region cells are a function of what the atlas
   carries: the classic pair of columns (UCG "-" when absent), or one
   column named after the game *)
let layout content =
  match content with
  | Layout.Classic _ ->
    ( header,
      fun (r : Layout.record) ->
        interval_to_string r.Layout.bcg
        ^ "," ^ match r.Layout.ucg with Some u -> union_to_string u | None -> "-" )
  | Layout.Game { union; _ } ->
    ( Printf.sprintf "graph6,n,m,%s_stable" (Nf_store.Build.game_of_content content),
      fun r ->
        if union then union_to_string (Option.value ~default:Interval.Union.empty r.Layout.ucg)
        else interval_to_string r.Layout.bcg )

let to_csv source =
  let header, regions = layout (Source.content source) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Source.iter source (fun g r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s\n" r.Layout.graph6 (Graph.order g) (Graph.size g) (regions r)));
  Buffer.contents buf

let of_csv text =
  match String.split_on_char '\n' (String.trim text) with
  | [] -> invalid_arg "Dataset.of_csv: empty"
  | first :: rows ->
    if first <> header then invalid_arg "Dataset.of_csv: bad header";
    List.map
      (fun row ->
        match String.split_on_char ',' row with
        | [ g6; _n; _m; stable; nash ] ->
          {
            graph = Nf_graph.Graph6.decode g6;
            bcg_stable = interval_of_string stable;
            ucg_nash = (if nash = "-" then None else Some (union_of_string nash));
          }
        | fields ->
          invalid_arg
            (Printf.sprintf "Dataset.of_csv: bad row (%d fields, expected 5): %s"
               (List.length fields) row))
      (List.filter (fun r -> String.trim r <> "") rows)

let save ~path source =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv source))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_csv (really_input_string ic (in_channel_length ic)))
