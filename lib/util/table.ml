type t = {
  headers : string list;
  mutable rows : string list list;  (** reversed *)
}

let create headers = { headers; rows = [] }

let fit width row =
  let rec go k = function
    | [] -> if k = 0 then [] else "" :: go (k - 1) []
    | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest
  in
  go width row

let add_row t row = t.rows <- fit (List.length t.headers) row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let record row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let print t = print_string (render t)
