module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

let default_weight i = 1 + (i mod 2)

let weights_of ~weight n =
  Array.init n (fun i ->
      let w = weight i in
      if w < 1 then
        invalid_arg (Printf.sprintf "Weighted_bcg: weight %d for player %d (must be >= 1)" w i);
      w)

(* ---- pricing ------------------------------------------------------------
   Player i pays w_i·α per link, so every BCG threshold k (an integer
   benefit or loss, Kernel.inf as ∞) turns into the fraction (k, w_i).
   The weights are indexed by player identity, so the pricing is not
   isomorphism-invariant: the annotator scans every pair. *)

let price ~weight ws sums =
  let w = weights_of ~weight (Kernel.order ws) in
  let at = Bcg.price ws sums in
  fun i j v -> (fst (at i j v), w.(v))

let stable_alpha_set_ws ~weight ws g =
  Pairwise.stable_interval (price ~weight) ws (Nf_iso.Symmetry.trivial (Graph.order g)) g

let stable_alpha_set ~weight g = Kernel.with_ws (fun ws -> stable_alpha_set_ws ~weight ws g)

let make ~weight : Interval.t Game.t =
  (module struct
    type region = Interval.t

    let family = "weighted_bcg"
    let params = ""
    let name = Game.render_name ~family ~params
    let describe = "bilateral connection game with per-player link-cost multipliers"
    let region_kind = Game.Region.Interval
    let schema_tag = 3
    (* No orbit quotient: w_i is not constant on automorphism orbits, so
       a representative toggle cannot stand for its orbit.  The subgroup
       is ignored and every pair is scanned. *)
    let stable_region_ws ws _sym g = stable_alpha_set_ws ~weight ws g
    let pricing = Some (price ~weight)
    let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
    let cost_model = Cost.Bcg
  end)
