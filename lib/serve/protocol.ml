(* The line-delimited JSON wire protocol (DESIGN.md §13).

   One request per line, one response line per request, in order.  Exact
   rationals travel as Rat.to_string text ("3/2") and are parsed with
   Rat.of_string — never through a float.  Unknown operations and
   malformed requests produce {"ok":false,"error":...} responses, not
   dropped connections. *)

module Rat = Nf_util.Rat

type request =
  | Stable_at of { game : string option; alpha : Rat.t }
  | Entry of { graph6 : string }
  | Figure_points of { grid : Rat.t list option }
  | Export
  | Stats
  | Health
  | Shutdown

let op_name = function
  | Stable_at _ -> "stable-at"
  | Entry _ -> "entry"
  | Figure_points _ -> "figure-points"
  | Export -> "export"
  | Stats -> "stats"
  | Health -> "health"
  | Shutdown -> "shutdown"

let request_to_json req =
  let base = [ ("op", Json.Str (op_name req)) ] in
  Json.Obj
    (match req with
    | Stable_at { game; alpha } ->
      base
      @ (match game with Some g -> [ ("game", Json.Str g) ] | None -> [])
      @ [ ("alpha", Json.Str (Rat.to_string alpha)) ]
    | Entry { graph6 } -> base @ [ ("graph6", Json.Str graph6) ]
    | Figure_points { grid } -> (
      base
      @
      match grid with
      | Some g -> [ ("grid", Json.List (List.map (fun r -> Json.Str (Rat.to_string r)) g)) ]
      | None -> [])
    | Export | Stats | Health | Shutdown -> base)

let ( let* ) = Result.bind

let str_field j name =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let rat_field j name =
  let* s = str_field j name in
  match Rat.of_string s with
  | r -> Ok r
  | exception Invalid_argument msg -> Error (Printf.sprintf "field %S: %s" name msg)

let request_of_json j =
  let* op = str_field j "op" in
  match op with
  | "stable-at" ->
    let game = Option.bind (Json.member "game" j) Json.to_str in
    let* alpha = rat_field j "alpha" in
    Ok (Stable_at { game; alpha })
  | "entry" ->
    let* graph6 = str_field j "graph6" in
    Ok (Entry { graph6 })
  | "figure-points" -> (
    match Json.member "grid" j with
    | None -> Ok (Figure_points { grid = None })
    | Some g -> (
      match Json.to_list g with
      | None -> Error "field \"grid\" must be a list of exact rationals"
      | Some items ->
        let rec parse acc = function
          | [] -> Ok (Figure_points { grid = Some (List.rev acc) })
          | Json.Str s :: tl -> (
            match Rat.of_string s with
            | r -> parse (r :: acc) tl
            | exception Invalid_argument msg -> Error (Printf.sprintf "grid value: %s" msg))
          | _ -> Error "field \"grid\" must be a list of exact rationals"
        in
        parse [] items))
  | "export" -> Ok Export
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line line =
  match Json.of_string line with
  | j -> request_of_json j
  | exception Json.Parse_error msg -> Error (Printf.sprintf "bad request: %s" msg)

(* ---------------- responses ---------------- *)

let error_response msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let ok_response fields = Json.Obj (("ok", Json.Bool true) :: fields)

let response_ok j = Json.member "ok" j = Some (Json.Bool true)

let response_error j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some msg -> msg
  | None -> "malformed error response"
