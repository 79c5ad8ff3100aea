module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Pairwise.Frac

let joint_addition_benefit g i j =
  Ext_int.add (Bcg.addition_benefit g i j) (Bcg.addition_benefit g j i)

let joint_severance_loss g i j =
  Ext_int.add (Bcg.severance_loss g i j) (Bcg.severance_loss g j i)

(* ---- persistent reference kernel ----------------------------------------
   Base-sharing twins over persistent graphs, retained as the parity-tested
   reference for the workspace path below (and for external one-off
   queries through the per-pair entry points). *)

let benefit_from ~base after =
  match base, after with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (b - a)
  | Ext_int.Inf, Ext_int.Fin _ -> Ext_int.Inf
  | Ext_int.Inf, Ext_int.Inf -> Ext_int.Fin 0
  | Ext_int.Fin _, Ext_int.Inf -> assert false (* adding cannot disconnect *)

let loss_from ~base after =
  match base, after with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (a - b)
  | Ext_int.Fin _, Ext_int.Inf -> Ext_int.Inf (* bridge *)
  | Ext_int.Inf, _ -> Ext_int.Inf

let joint_benefit_from ~base g i j =
  let added = Graph.add_edge g i j in
  Ext_int.add
    (benefit_from ~base:base.(i) (Bfs.distance_sum added i))
    (benefit_from ~base:base.(j) (Bfs.distance_sum added j))

let joint_loss_from ~base g i j =
  let removed = Graph.remove_edge g i j in
  Ext_int.add
    (loss_from ~base:base.(i) (Bfs.distance_sum removed i))
    (loss_from ~base:base.(j) (Bfs.distance_sum removed j))

let half_ext = function
  | Ext_int.Fin k -> Interval.Finite (Rat.make k 2)
  | Ext_int.Inf -> Interval.Pos_inf

let stable_alpha_set_reference g =
  let base = Apsp.distance_sums g in
  let lo = ref (Ext_int.Fin 0) in
  Graph.iter_non_edges g (fun i j -> lo := Ext_int.max !lo (joint_benefit_from ~base g i j));
  let hi = ref Ext_int.Inf in
  Graph.iter_edges g (fun i j -> hi := Ext_int.min !hi (joint_loss_from ~base g i j));
  Interval.inter positive
    (Interval.make ~lo:(half_ext !lo) ~lo_closed:true ~hi:(half_ext !hi) ~hi_closed:true)

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
