module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Pairwise.Frac

let addition_benefit g i j =
  if Graph.has_edge g i j then invalid_arg "Bcg.addition_benefit: edge present";
  let before = Bfs.distance_sum g i
  and after = Bfs.distance_sum (Graph.add_edge g i j) i in
  match before, after with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (b - a)
  | Ext_int.Inf, Ext_int.Fin _ -> Ext_int.Inf
  | Ext_int.Inf, Ext_int.Inf -> Ext_int.Fin 0
  | Ext_int.Fin _, Ext_int.Inf -> assert false (* adding cannot disconnect *)

let severance_loss g i j =
  if not (Graph.has_edge g i j) then invalid_arg "Bcg.severance_loss: not an edge";
  let before = Bfs.distance_sum g i
  and after = Bfs.distance_sum (Graph.remove_edge g i j) i in
  match before, after with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (a - b)
  | Ext_int.Fin _, Ext_int.Inf -> Ext_int.Inf (* bridge *)
  | Ext_int.Inf, _ ->
    (* i's cost is infinite with or without the edge: indifferent, and the
       weak deletion inequality of Definition 3 always holds *)
    Ext_int.Inf

(* ---- workspace kernel ---------------------------------------------------
   Base distance sums from one bit-parallel all-sources sweep, then every
   edge toggle is two in-place xors plus one allocation-free single-source
   sweep per endpoint, with benefits/losses kept as raw ints (Kernel.inf as
   ∞) and α compared by integer cross-multiplication. *)

let inf = Kernel.inf

(* i's cost decrease from adding a missing edge, as an int (inf = ∞).
   Adding cannot disconnect, so base finite ⇒ after finite. *)
let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after

(* i's cost increase from severing an edge; ∞ for a bridge or when i's cost
   is already infinite either way. *)
let iloss ~base after = if base = inf || after = inf then inf else after - base

(* The three scan results packed as ints to keep the hot path mono-field:
   lo/hi with inf = ∞, tied as bool. *)
type iscan = {
  iscan_lo : int;
  iscan_hi : int;
  iscan_tied : bool;
}

(* One pass over the representative pairs of the subgroup's orbits
   (Symmetry.iter_pair_reps; every pair for the trivial subgroup).  An
   automorphism σ carries the toggle of {i,j} to the toggle of {σi,σj}
   and preserves distance sums, so the multiset {benefit_i, benefit_j}
   (resp. {loss_i, loss_j}) is constant on each orbit — every max/min/tie
   update the skipped pairs would contribute is already contributed, with
   the same operands, by their representative.  The folds are
   order-independent, so the result is structurally identical to the
   all-pairs scan's (test/test_orbit.ml diffs it per registered game).
   A twin pair has the transposition (i j) in the subgroup, so
   benefit_j = benefit_i and loss_j = loss_i exactly: one sweep serves
   both endpoints and the attaining pair always ties. *)
let scan_stability_ws ws sym =
  let base = Kernel.all_distance_sums ws in
  let lo = ref 0 and tied = ref true and hi = ref inf in
  Symmetry.iter_pair_reps sym (fun i j twin ->
      if Kernel.has_edge ws i j then begin
        Kernel.toggle ws i j;
        let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i) in
        if li < !hi then hi := li;
        if (not twin) && !hi > 0 then begin
          (* min with lj, skipped when hi is already 0 (cannot drop lower:
             losses are ≥ 0) — same result, fewer sweeps *)
          let lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
          if lj < !hi then hi := lj
        end;
        Kernel.toggle ws i j
      end
      else begin
        Kernel.toggle ws i j;
        let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i) in
        (* bi < lo ⇒ min(bi, bj) < lo: the pair can neither raise the max
           nor tie it, so j's sweep is skipped — same scan result *)
        if bi >= !lo then begin
          let bj =
            if twin then bi else ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j)
          in
          let m = if bi < bj then bi else bj in
          if m > !lo then begin
            lo := m;
            tied := bi = bj
          end
          else if m = !lo && bi <> bj then tied := false
        end;
        Kernel.toggle ws i j
      end);
  { iscan_lo = !lo; iscan_hi = !hi; iscan_tied = !tied }

let endpoint_of_int k = if k = inf then Interval.Pos_inf else Interval.Finite (Rat.of_int k)

let interval_of_iscan ~lo_closed s =
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_int s.iscan_lo) ~lo_closed
       ~hi:(endpoint_of_int s.iscan_hi) ~hi_closed:true)

let stability_interval g =
  Kernel.with_loaded g (fun ws ->
      interval_of_iscan ~lo_closed:false
        (scan_stability_ws ws (Symmetry.trivial (Graph.order g))))

(* The left end is attained exactly when every missing edge whose
   less-interested benefit equals α_min is a tie (both endpoints equally
   interested): at α = benefit the strict "ci < ci" premise of
   Definition 3 fails on both sides. *)
let stable_alpha_set_sym_ws ws sym g =
  Kernel.load ws g;
  let s = scan_stability_ws ws sym in
  interval_of_iscan ~lo_closed:(s.iscan_lo <> inf && s.iscan_tied) s

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)

(* BCG pricing: each endpoint's distance-sum change, over 1 *)
let price ws =
  let base = Kernel.all_distance_sums ws in
  fun i j ->
    let si = Kernel.distance_sum_from ws i and sj = Kernel.distance_sum_from ws j in
    if Kernel.has_edge ws i j then
      ((ibenefit ~base:base.(i) si, 1), (ibenefit ~base:base.(j) sj, 1))
    else ((iloss ~base:base.(i) si, 1), (iloss ~base:base.(j) sj, 1))

let is_pairwise_stable ~alpha g = Pairwise.is_stable price ~alpha g
let improving_moves ~alpha g = Pairwise.improving_moves price ~alpha g

(* Nash part: no player gains by dropping any subset of its links (a
   unilateral deviation can only sever in the BCG — announcing new links
   without consent just costs α per announcement).  Single-link cuts are
   among those subsets, so the pairwise part adds only the consented
   additions of Definition 3. *)
let is_pairwise_nash ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.all_distance_sums ws in
      let n = Kernel.order ws in
      let nash_ok = ref true in
      for i = 0 to n - 1 do
        Nf_util.Subset.iter_subsets (Kernel.neighbors ws i) (fun nbrs ->
            if !nash_ok && not (Nf_util.Bitset.is_empty nbrs) then begin
              let k = Nf_util.Bitset.cardinal nbrs in
              Nf_util.Bitset.iter (fun j -> Kernel.toggle ws i j) nbrs;
              let after = Kernel.distance_sum_from ws i in
              Nf_util.Bitset.iter (fun j -> Kernel.toggle ws i j) nbrs;
              (* improving iff ΔD < α·k, i.e. (after − base)·den < num·k *)
              if base.(i) <> inf && after <> inf then
                if (after - base.(i)) * Rat.den alpha < Rat.num alpha * k then nash_ok := false
            end)
      done;
      !nash_ok)
  && is_pairwise_stable ~alpha g
