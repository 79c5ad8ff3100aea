module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Kernel = Nf_graph.Kernel
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

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

(* ---- pricing -------------------------------------------------------------
   The endpoint's distance-sum change as a raw int (Kernel.inf as ∞) over
   1; the caller supplies both sums.  The [let] keeps [price ws sums] a
   closure of arity 3: a pattern parameter followed by [fun] would merge
   into one function of arity 5, and [at i j v] would go through a
   partial application. *)

let price ws (s : Pairwise.sums) =
  let before = s.before and after = s.after in
  fun i j v ->
    if Kernel.has_edge ws i j then (Pairwise.ibenefit ~base:(before v) (after v), 1)
    else (Pairwise.iloss ~base:(before v) (after v), 1)

(* The left end is attained exactly when every missing edge whose
   less-interested benefit equals α_min is a tie (both endpoints equally
   interested): at α = benefit the strict "ci < ci" premise of
   Definition 3 fails on both sides. *)
let stable_alpha_set_sym_ws ws sym g = Pairwise.stable_interval price ws sym g

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)

(* the paper's (α_min, α_max]: the exact set differs at most at α_min *)
let stability_interval g =
  match Interval.bounds (stable_alpha_set g) with
  | None -> Interval.empty
  | Some (lo, _, hi, hi_closed) -> Interval.make ~lo ~lo_closed:false ~hi ~hi_closed

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
              if base.(i) <> Kernel.inf && after <> Kernel.inf then
                if (after - base.(i)) * Rat.den alpha < Rat.num alpha * k then nash_ok := false
            end)
      done;
      !nash_ok)
  && is_pairwise_stable ~alpha g
