type t = {
  num : int;
  den : int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero
  else
    let sign = if den < 0 then -1 else 1 in
    let num = sign * num
    and den = sign * den in
    let g = gcd (abs num) den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int k = { num = k; den = 1 }
let zero = of_int 0
let one = of_int 1
let num r = r.num
let den r = r.den
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero else make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }

(* Cross-multiplication is exact: components stay small in this library. *)
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let is_integer r = r.den = 1
let to_float r = float_of_int r.num /. float_of_int r.den

let pp ppf r =
  if r.den = 1 then Format.fprintf ppf "%d" r.num
  else Format.fprintf ppf "%d/%d" r.num r.den

let to_string r = Format.asprintf "%a" pp r

(* A parsed component stays below 2^31 in magnitude, so the product of
   two components — every cross-multiplication a parsed α meets against
   a threshold of small integers — fits in 63 bits. *)
let component_limit = 1 lsl 31

(* A strict decimal integer: an optional leading '-', then digits only.
   [int_of_string] alone would also admit hex, octal, '+' and '_'
   separators — none of which [to_string] ever emits, and none of which
   a wire protocol should silently accept.  A spelling past the limit
   (including one past the int range) is [`Range]. *)
let parse_int s =
  let open Stdlib in
  let digits body =
    String.length body > 0 && String.for_all (fun c -> c >= '0' && c <= '9') body
  in
  let body =
    if String.length s > 0 && s.[0] = '-' then String.sub s 1 (String.length s - 1) else s
  in
  if not (digits body) then Error `Syntax
  else
    match int_of_string_opt s with
    | Some k when k > -component_limit && k < component_limit -> Ok k
    | _ -> Error `Range

let parse s =
  let ( let* ) = Result.bind in
  match String.index_opt s '/' with
  | None -> Result.map of_int (parse_int s)
  | Some k ->
    let* p = parse_int (String.sub s 0 k) in
    let* q = parse_int (String.sub s (k + 1) (String.length s - k - 1)) in
    if q = 0 then Error `Syntax else Ok (make p q)

let of_string_opt s = Result.to_option (parse s)

let of_string s =
  match parse s with
  | Ok r -> r
  | Error `Syntax ->
    invalid_arg (Printf.sprintf "Rat.of_string: %S is not an integer or P/Q rational" s)
  | Error `Range ->
    invalid_arg
      (Printf.sprintf "Rat.of_string: %S has a numerator or denominator of magnitude >= 2^31" s)
