(* Standard trick: the subsets of a bitmask [g] are visited by
   [s -> (s - g) land g] starting from 0, which counts through exactly the
   bit patterns contained in [g]. *)
let iter_subsets ground f =
  let rec go s =
    f s;
    let next = (s - ground) land ground in
    if next <> 0 then go next
  in
  go 0

exception Found

let exists_subset ground pred =
  try
    iter_subsets ground (fun s -> if pred s then raise Found);
    false
  with Found -> true

let iter_subsets_of_size ground k f =
  iter_subsets ground (fun s -> if Bitset.cardinal s = k then f s)

(* [1 lsl 62] is already undefined behavior territory on 63-bit ints (the
   shift lands in the sign bit), so refuse cardinals the shift cannot
   represent instead of silently returning garbage. *)
let count_subsets ground =
  let c = Bitset.cardinal ground in
  if c >= Sys.int_size - 1 then
    invalid_arg
      (Printf.sprintf "Subset.count_subsets: 2^%d exceeds the native int range (cardinal \
                       must be < %d)" c (Sys.int_size - 1))
  else 1 lsl c

let iter_pairs n f =
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      f i j
    done
  done
