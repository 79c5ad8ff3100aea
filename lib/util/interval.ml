type endpoint =
  | Neg_inf
  | Finite of Rat.t
  | Pos_inf

type range = {
  lo : endpoint;
  lo_closed : bool;
  hi : endpoint;
  hi_closed : bool;
}

type t =
  | Empty
  | Range of range

let compare_endpoint a b =
  match a, b with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, (Finite _ | Pos_inf) -> -1
  | (Finite _ | Pos_inf), Neg_inf -> 1
  | Finite x, Finite y -> Rat.compare x y
  | Finite _, Pos_inf -> -1
  | Pos_inf, Finite _ -> 1
  | Pos_inf, Pos_inf -> 0

let empty = Empty

(* Infinite endpoints are never "closed": normalize the flags so that
   structural equality of ranges coincides with set equality. *)
let make ~lo ~lo_closed ~hi ~hi_closed =
  let lo_closed =
    match lo with
    | Finite _ -> lo_closed
    | Neg_inf | Pos_inf -> false
  in
  let hi_closed =
    match hi with
    | Finite _ -> hi_closed
    | Neg_inf | Pos_inf -> false
  in
  let c = compare_endpoint lo hi in
  if c > 0 then Empty
  else if c = 0 then
    if lo_closed && hi_closed then Range { lo; lo_closed; hi; hi_closed } else Empty
  else
    match lo, hi with
    | Pos_inf, _ | _, Neg_inf -> Empty
    | (Neg_inf | Finite _), (Finite _ | Pos_inf) ->
      Range { lo; lo_closed; hi; hi_closed }

let full = make ~lo:Neg_inf ~lo_closed:false ~hi:Pos_inf ~hi_closed:false
let closed a b = make ~lo:(Finite a) ~lo_closed:true ~hi:(Finite b) ~hi_closed:true
let open_closed a hi = make ~lo:(Finite a) ~lo_closed:false ~hi ~hi_closed:true
let point a = closed a a

let is_empty = function
  | Empty -> true
  | Range _ -> false

let mem x = function
  | Empty -> false
  | Range r ->
    let above_lo =
      match r.lo with
      | Neg_inf -> true
      | Pos_inf -> false
      | Finite a -> if r.lo_closed then Rat.(a <= x) else Rat.(a < x)
    in
    let below_hi =
      match r.hi with
      | Pos_inf -> true
      | Neg_inf -> false
      | Finite b -> if r.hi_closed then Rat.(x <= b) else Rat.(x < b)
    in
    above_lo && below_hi

let bounds = function
  | Empty -> None
  | Range r -> Some (r.lo, r.lo_closed, r.hi, r.hi_closed)

(* The tighter (larger) of two lower bounds. *)
let max_lower (e1, c1) (e2, c2) =
  let c = compare_endpoint e1 e2 in
  if c > 0 then e1, c1 else if c < 0 then e2, c2 else e1, c1 && c2

(* The tighter (smaller) of two upper bounds. *)
let min_upper (e1, c1) (e2, c2) =
  let c = compare_endpoint e1 e2 in
  if c < 0 then e1, c1 else if c > 0 then e2, c2 else e1, c1 && c2

let inter a b =
  match a, b with
  | Empty, _ | _, Empty -> Empty
  | Range r1, Range r2 ->
    let lo, lo_closed = max_lower (r1.lo, r1.lo_closed) (r2.lo, r2.lo_closed) in
    let hi, hi_closed = min_upper (r1.hi, r1.hi_closed) (r2.hi, r2.hi_closed) in
    make ~lo ~lo_closed ~hi ~hi_closed

let equal a b =
  match a, b with
  | Empty, Empty -> true
  | Range r1, Range r2 ->
    compare_endpoint r1.lo r2.lo = 0
    && compare_endpoint r1.hi r2.hi = 0
    && r1.lo_closed = r2.lo_closed
    && r1.hi_closed = r2.hi_closed
  | Empty, Range _ | Range _, Empty -> false

let subset a b = equal (inter a b) a

let pp_endpoint_lo ppf (e, closed) =
  match e with
  | Neg_inf -> Format.pp_print_string ppf "(-inf"
  | Pos_inf -> Format.pp_print_string ppf "(+inf"
  | Finite r -> Format.fprintf ppf "%s%a" (if closed then "[" else "(") Rat.pp r

let pp_endpoint_hi ppf (e, closed) =
  match e with
  | Neg_inf -> Format.pp_print_string ppf "-inf)"
  | Pos_inf -> Format.pp_print_string ppf "+inf)"
  | Finite r -> Format.fprintf ppf "%a%s" Rat.pp r (if closed then "]" else ")")

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "{}"
  | Range r ->
    Format.fprintf ppf "%a, %a" pp_endpoint_lo (r.lo, r.lo_closed) pp_endpoint_hi
      (r.hi, r.hi_closed)

let to_string i = Format.asprintf "%a" pp i

module Union = struct
  type nonrec t = t list
  (* invariant: non-empty ranges, sorted by lower bound, pairwise disjoint
     and non-touching. *)

  let empty = []

  (* Two sorted ranges can be merged when the first's upper bound reaches or
     touches the second's lower bound. *)
  let touches r1 r2 =
    let c = compare_endpoint r1.hi r2.lo in
    c > 0 || (c = 0 && (r1.hi_closed || r2.lo_closed))

  let merge r1 r2 =
    let hi, hi_closed =
      let c = compare_endpoint r1.hi r2.hi in
      if c > 0 then r1.hi, r1.hi_closed
      else if c < 0 then r2.hi, r2.hi_closed
      else r1.hi, r1.hi_closed || r2.hi_closed
    in
    { r1 with hi; hi_closed }

  let compare_lo r1 r2 =
    let c = compare_endpoint r1.lo r2.lo in
    if c <> 0 then c else Bool.compare r2.lo_closed r1.lo_closed

  let of_list intervals =
    let ranges =
      List.filter_map
        (function
          | Empty -> None
          | Range r -> Some r)
        intervals
    in
    let sorted = List.sort compare_lo ranges in
    let rec coalesce = function
      | r1 :: r2 :: rest ->
        if touches r1 r2 then coalesce (merge r1 r2 :: rest)
        else Range r1 :: coalesce (r2 :: rest)
      | [ r ] -> [ Range r ]
      | [] -> []
    in
    coalesce sorted

  let to_list u = u
  let is_empty u = u = []
  let mem x u = List.exists (mem x) u

  (* A connected set inside the union lies inside one of its ranges: the
     ranges are the union's maximal connected pieces. *)
  let covers u = function
    | Empty -> true
    | Range r ->
      List.exists
        (function
          | Empty -> false
          | Range c ->
            let lo = compare_endpoint c.lo r.lo
            and hi = compare_endpoint r.hi c.hi in
            (lo < 0 || (lo = 0 && (c.lo_closed || not r.lo_closed)))
            && (hi < 0 || (hi = 0 && (c.hi_closed || not r.hi_closed))))
        u

  let add i u = of_list (i :: u)
  let union u1 u2 = of_list (u1 @ u2)
  let equal u1 u2 = List.length u1 = List.length u2 && List.for_all2 equal u1 u2

  let pp ppf u =
    match u with
    | [] -> Format.pp_print_string ppf "{}"
    | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " u ")
        pp ppf u

  let to_string u = Format.asprintf "%a" pp u
end
