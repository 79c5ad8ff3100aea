module Rat = Nf_util.Rat

let dyadic x =
  let denom = 4096 in
  let scaled = x *. float_of_int denom in
  if Float.is_integer scaled then Rat.make (int_of_float scaled) denom
  else invalid_arg "Sweep.dyadic: not dyadic with denominator <= 4096"

let paper_grid =
  List.map
    (fun (num, den) -> Rat.make num den)
    [
      (1, 4); (3, 8); (1, 2); (3, 4); (1, 1); (3, 2); (2, 1); (3, 1); (4, 1); (6, 1);
      (8, 1); (12, 1); (16, 1); (24, 1); (32, 1); (48, 1); (64, 1);
    ]

let log_floats ~lo ~hi ~points =
  if points < 2 then invalid_arg "Sweep.log_floats: need >= 2 points";
  let llo = log lo
  and lhi = log hi in
  List.init points (fun k ->
      exp (llo +. ((lhi -. llo) *. float_of_int k /. float_of_int (points - 1))))
