type t =
  | Fin of int
  | Inf

let zero = Fin 0
let one = Fin 1
let of_int k = Fin k

let to_int = function
  | Fin k -> k
  | Inf -> invalid_arg "Ext_int.to_int: infinite"

let is_finite = function
  | Fin _ -> true
  | Inf -> false

let add a b =
  match a, b with
  | Fin x, Fin y -> Fin (x + y)
  | Inf, _ | _, Inf -> Inf

let sub a b =
  match a, b with
  | Fin x, Fin y -> Fin (x - y)
  | Inf, Fin _ -> Inf
  | (Fin _ | Inf), Inf -> invalid_arg "Ext_int.sub: infinite subtrahend"

let mul_int k v =
  if k < 0 then invalid_arg "Ext_int.mul_int: negative factor"
  else
    match v with
    | Fin x -> Fin (k * x)
    | Inf -> if k = 0 then Fin 0 else Inf

let sum vs = List.fold_left add zero vs

let compare a b =
  match a, b with
  | Fin x, Fin y -> Stdlib.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b

let to_float = function
  | Fin x -> float_of_int x
  | Inf -> infinity

let pp ppf = function
  | Fin x -> Format.fprintf ppf "%d" x
  | Inf -> Format.pp_print_string ppf "inf"

let to_string v = Format.asprintf "%a" pp v
