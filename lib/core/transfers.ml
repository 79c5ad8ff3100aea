module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Pairwise.Frac

(* ---- workspace kernel ---------------------------------------------------
   Joint thresholds as raw ints (Kernel.inf as ∞): one all-sources sweep
   for the base sums, two in-place xors plus two allocation-free
   single-source sweeps per edge toggle. *)

let inf = Kernel.inf

let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after
let iloss ~base after = if base = inf || after = inf then inf else after - base
let iadd a b = if a = inf || b = inf then inf else a + b

let half_int k = if k = inf then Interval.Pos_inf else Interval.Finite (Rat.make k 2)

(* One pass over the subgroup's orbit-representative pairs
   (Symmetry.iter_pair_reps; every pair for the trivial subgroup): the
   joint benefit/loss of a pair is a sum of distance-sum differences,
   preserved by any automorphism carrying one pair to another, so each
   representative contributes exactly the values of every pair it stands
   for and the max/min folds are unchanged.  A twin pair has the
   transposition (i j) in the subgroup, so its joint value is twice one
   endpoint's — one sweep per twin pair. *)
let scan_ws ws sym =
  let base = Kernel.all_distance_sums ws in
  let lo = ref 0 and hi = ref inf in
  Symmetry.iter_pair_reps sym (fun i j twin ->
      Kernel.toggle ws i j;
      if Kernel.has_edge ws i j then begin
        (* toggled a non-edge on: joint benefit *)
        let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i) in
        let bj = if twin then bi else ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
        let b = iadd bi bj in
        if b > !lo then lo := b
      end
      else begin
        (* toggled an edge off: joint loss *)
        let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i) in
        let lj = if twin then li else iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
        let l = iadd li lj in
        if l < !hi then hi := l
      end;
      Kernel.toggle ws i j);
  (!lo, !hi)

(* A link is added when joint benefit > 2α (strict, mirroring the revised
   Definition 3), so stability to additions is α >= benefit/2: closed.
   A link survives when joint loss >= 2α: α <= loss/2, closed. *)
let stable_alpha_set_sym_ws ws sym g =
  Kernel.load ws g;
  let lo, hi = scan_ws ws sym in
  Interval.inter positive
    (Interval.make ~lo:(half_int lo) ~lo_closed:true ~hi:(half_int hi) ~hi_closed:true)

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)

(* Transfers pricing under the bilateral rule: an addition is priced at
   the joint benefit over 2 on both sides, so consent reduces to
   "joint benefit > 2α" (strict, mirroring the revised Definition 3); a
   deletion at the joint loss over 2 for i and ∞ for j, so exactly one
   Delete (i, j) is offered per edge whose joint loss is below 2α —
   severance is a joint decision, side payments make the initiator
   irrelevant. *)
let price ws =
  let base = Kernel.all_distance_sums ws in
  fun i j ->
    let si = Kernel.distance_sum_from ws i and sj = Kernel.distance_sum_from ws j in
    if Kernel.has_edge ws i j then begin
      let b = (iadd (ibenefit ~base:base.(i) si) (ibenefit ~base:base.(j) sj), 2) in
      (b, b)
    end
    else ((iadd (iloss ~base:base.(i) si) (iloss ~base:base.(j) sj), 2), (inf, 1))

let improving_moves ~alpha g = Pairwise.improving_moves price ~alpha g
let is_stable ~alpha g = Pairwise.is_stable price ~alpha g
