module Ext_int = Nf_util.Ext_int

(* One bit-parallel all-sources sweep instead of n independent BFS runs. *)
let distance_sums g =
  Kernel.with_loaded g (fun ws ->
      let sums = Kernel.all_distance_sums ws in
      Array.init (Graph.order g) (fun v -> Kernel.to_ext sums.(v)))

(* diameter = max eccentricity, radius = min eccentricity, wiener = sum of
   distance sums — all read off the same kernel sweep.  A source that does
   not reach every vertex has infinite eccentricity and distance sum, which
   matches folding [Ext_int.Inf] for each unreachable target. *)
let diameter g =
  if Graph.order g = 0 then Ext_int.zero
  else
    Kernel.with_loaded g (fun ws ->
        ignore (Kernel.all_distance_sums ws);
        let ecc = Kernel.eccentricities ws in
        let worst = ref 0 in
        for v = 0 to Graph.order g - 1 do
          if ecc.(v) > !worst then worst := ecc.(v)
        done;
        Kernel.to_ext !worst)

let radius g =
  if Graph.order g = 0 then Ext_int.zero
  else
    Kernel.with_loaded g (fun ws ->
        ignore (Kernel.all_distance_sums ws);
        let ecc = Kernel.eccentricities ws in
        let best = ref Kernel.inf in
        for v = 0 to Graph.order g - 1 do
          if ecc.(v) < !best then best := ecc.(v)
        done;
        Kernel.to_ext !best)

let wiener g =
  Kernel.with_loaded g (fun ws ->
      let sums = Kernel.all_distance_sums ws in
      let total = ref Ext_int.zero in
      for v = 0 to Graph.order g - 1 do
        total := Ext_int.add !total (Kernel.to_ext sums.(v))
      done;
      !total)

let average_distance g =
  let n = Graph.order g in
  if n < 2 then nan
  else Ext_int.to_float (wiener g) /. float_of_int (n * (n - 1))
