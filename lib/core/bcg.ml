module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Interval = Nf_util.Interval

(* [f ~base after] of i's distance sum before and after toggling {i,j} *)
let toggle_change f g i j =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.distance_sum_from ws i in
      Kernel.toggle ws i j;
      Kernel.to_ext (f ~base (Kernel.distance_sum_from ws i)))

let addition_benefit g i j =
  if Graph.has_edge g i j then invalid_arg "Bcg.addition_benefit: edge present";
  toggle_change Pairwise.ibenefit g i j

let severance_loss g i j =
  if not (Graph.has_edge g i j) then invalid_arg "Bcg.severance_loss: not an edge";
  toggle_change Pairwise.iloss g i j

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
