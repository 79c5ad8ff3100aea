module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

let inf = Kernel.inf

module Frac = struct
  type t = int * int

  let frac_lt (an, ad) (bn, bd) = if an = inf then false else bn = inf || an * bd < bn * ad

  let frac_eq (an, ad) (bn, bd) =
    if an = inf || bn = inf then an = bn else an * bd = bn * ad

  let frac_min a b = if frac_lt b a then b else a

  (* α = num/den with den > 0 and f's den > 0, so α < fn/fd ⟺
     num·fd < fn·den *)
  let frac_lt_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd < fn * Rat.den alpha
  let frac_le_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd <= fn * Rat.den alpha

  let endpoint_of_frac (k, d) =
    if k = inf then Interval.Pos_inf else Interval.Finite (Rat.make k d)

  let positive = Interval.open_closed Rat.zero Interval.Pos_inf
end

let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after
let iloss ~base after = if base = inf || after = inf then inf else after - base

open Frac

type move = Add of int * int | Delete of int * int

type sums = {
  before : int -> int;
  after : int -> int;
}

type pricing = Kernel.t -> sums -> int -> int -> int -> Frac.t

(* The pricing function is a closure called once per priced endpoint,
   and the dev profile compiles each module against the .cmi files of
   the others only (no cross-module inlining), so every [at i j v] below
   is a real call returning a fresh fraction.  Against an inline integer
   loop that costs about a tenth of the BCG annotation time at n = 9;
   the sweeps the fold skips, and its early stop, win it back. *)

let addition_blocks alpha ti tj =
  (frac_lt_alpha alpha ti && frac_le_alpha alpha tj)
  || (frac_lt_alpha alpha tj && frac_le_alpha alpha ti)

(* One toggled pair's verdict.  An addition with t_i < α fails both
   disjuncts of the consent rule (lt ⊆ le), and a deletion with t_i < α
   improves whatever t_j is: either way j is not priced. *)
let improves alpha at ~added i j =
  let ti = at i j i in
  if added then frac_le_alpha alpha ti && addition_blocks alpha ti (at i j j)
  else (not (frac_le_alpha alpha ti)) || not (frac_le_alpha alpha (at i j j))

(* The sums of a graph loaded in [ws], and the pair toggle its callers
   use.  before comes from one all-sources sweep of the untoggled graph,
   taken at the first read, so a pricing that never reads it
   (Distance_utility's) costs no sweep; reads happen only while a pair
   is toggled, so the sweep flips the pair last toggled back for its
   duration.  after is a single-source sweep on the toggled workspace,
   run only when the pricing asks. *)
let prepare price ws =
  let ti = ref 0 and tj = ref 0 and swept = ref false and base = ref [||] in
  let before v =
    if not !swept then begin
      Kernel.toggle ws !ti !tj;
      base := Kernel.all_distance_sums ws;
      Kernel.toggle ws !ti !tj;
      swept := true
    end;
    !base.(v)
  in
  let toggle i j =
    ti := i;
    tj := j;
    Kernel.toggle ws i j
  in
  (price ws { before; after = Kernel.distance_sum_from ws }, toggle)

(* both endpoints, i first, with the pair toggled *)
let price_toggled toggle at i j =
  toggle i j;
  let ti = at i j i in
  let tj = at i j j in
  toggle i j;
  (ti, tj)

(* every pair i < j in lexicographic order — the trivial subgroup's
   case of the one pair traversal — with [present] read before the
   toggle *)
let iter_pairs ws f =
  Symmetry.iter_pair_reps
    (Symmetry.trivial (Kernel.order ws))
    (fun i j _twin -> f i j (Kernel.has_edge ws i j))

let is_stable price ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let at, toggle = prepare price ws in
      try
        iter_pairs ws (fun i j present ->
            toggle i j;
            let improving = improves alpha at ~added:(not present) i j in
            toggle i j;
            if improving then raise_notrace Exit);
        true
      with Exit -> false)

let improving_moves price ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let at, toggle = prepare price ws in
      let adds = ref [] and dels = ref [] in
      iter_pairs ws (fun i j present ->
          let ti, tj = price_toggled toggle at i j in
          if present then begin
            if not (frac_le_alpha alpha ti) then dels := Delete (i, j) :: !dels;
            if not (frac_le_alpha alpha tj) then dels := Delete (j, i) :: !dels
          end
          else if addition_blocks alpha ti tj then adds := Add (i, j) :: !adds);
      !dels @ !adds)

(* α_min is the running max of min(t_i, t_j) over missing links, with a
   flag recording whether every pair attaining it is a tie (a new strict
   maximum resets the flag, an equal one refines it); α_max is the
   running min of the endpoint losses.  Every update is
   order-independent, and an automorphism carrying {i,j} to {σi,σj}
   carries the threshold pair along with it, so one representative per
   orbit contributes every value its orbit would.  j is priced only
   when it can still move the fold:
   - an addition with t_i < α_min has min(t_i, t_j) < α_min, so it can
     neither raise the max nor tie it;
   - a deletion once α_max ≤ 0 leaves the region empty whatever t_j is;
   - a twin pair has the transposition (i j) in the subgroup, so
     t_j = t_i exactly and the attaining pair ties.
   α_min only grows and α_max only shrinks, so once α_max < α_min or
   α_max ≤ 0 the region is empty whatever the remaining pairs price, and
   the scan stops. *)
let stable_interval price ws sym g =
  Kernel.load ws g;
  let at, toggle = prepare price ws in
  let lo = ref (0, 1) and tied = ref true and hi = ref (inf, 1) in
  (try
     Symmetry.iter_pair_reps sym (fun i j twin ->
         let present = Kernel.has_edge ws i j in
         toggle i j;
         let ti = at i j i in
         if present then begin
           if frac_lt ti !hi then hi := ti;
           if (not twin) && frac_lt (0, 1) !hi then begin
             let tj = at i j j in
             if frac_lt tj !hi then hi := tj
           end
         end
         else if not (frac_lt ti !lo) then begin
           let tj = if twin then ti else at i j j in
           let m = frac_min ti tj in
           if frac_lt !lo m then begin
             lo := m;
             tied := frac_eq ti tj
           end
           else if frac_eq m !lo && not (frac_eq ti tj) then tied := false
         end;
         toggle i j;
         if frac_lt !hi !lo || not (frac_lt (0, 1) !hi) then raise_notrace Exit)
   with Exit -> ());
  (* Interval.make opens an infinite end, so an ∞ α_min needs no guard *)
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac !lo) ~lo_closed:!tied
       ~hi:(endpoint_of_frac !hi) ~hi_closed:true)
