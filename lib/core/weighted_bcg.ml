module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Pairwise.Frac

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

let inf = Kernel.inf

let price ~weight ws =
  let w = weights_of ~weight (Kernel.order ws) in
  let at = Bcg.price ws in
  fun i j ->
    let (ki, _), (kj, _) = at i j in
    ((ki, w.(i)), (kj, w.(j)))

let stable_alpha_set_ws ~weight ws g =
  Pairwise.stable_interval (price ~weight) ws (Nf_iso.Symmetry.trivial (Graph.order g)) g

let stable_alpha_set ~weight g = Kernel.with_ws (fun ws -> stable_alpha_set_ws ~weight ws g)
let is_stable ~weight ~alpha g = Pairwise.is_stable (price ~weight) ~alpha g
let improving_moves ~weight ~alpha g = Pairwise.improving_moves (price ~weight) ~alpha g

(* ---- persistent reference twin ------------------------------------------
   Same scan over persistent graphs: base sums via Apsp.distance_sums, one
   fresh allocating BFS per endpoint per toggle (the independently-reviewed
   distance path), thresholds as Ext_int scaled into fractions. *)

let frac_of_ext ext wi =
  match ext with
  | Ext_int.Fin k -> (k, wi)
  | Ext_int.Inf -> (inf, 1)

let benefit_from ~base after =
  match (base, after) with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (b - a)
  | Ext_int.Inf, Ext_int.Fin _ -> Ext_int.Inf
  | Ext_int.Inf, Ext_int.Inf -> Ext_int.Fin 0
  | Ext_int.Fin _, Ext_int.Inf -> assert false (* adding cannot disconnect *)

let loss_from ~base after =
  match (base, after) with
  | Ext_int.Fin b, Ext_int.Fin a -> Ext_int.Fin (a - b)
  | Ext_int.Fin _, Ext_int.Inf -> Ext_int.Inf (* bridge *)
  | Ext_int.Inf, _ -> Ext_int.Inf

let stable_alpha_set_reference ~weight g =
  let n = Graph.order g in
  let w = weights_of ~weight n in
  let base = Apsp.distance_sums g in
  let lo = ref (0, 1) and tied = ref true in
  Graph.iter_non_edges g (fun i j ->
      let added = Graph.add_edge g i j in
      let ti = frac_of_ext (benefit_from ~base:base.(i) (Bfs.distance_sum added i)) w.(i)
      and tj = frac_of_ext (benefit_from ~base:base.(j) (Bfs.distance_sum added j)) w.(j) in
      let m = frac_min ti tj in
      if frac_lt !lo m then begin
        lo := m;
        tied := frac_eq ti tj
      end
      else if frac_eq m !lo && not (frac_eq ti tj) then tied := false);
  let hi = ref (inf, 1) in
  Graph.iter_edges g (fun i j ->
      let removed = Graph.remove_edge g i j in
      let li = frac_of_ext (loss_from ~base:base.(i) (Bfs.distance_sum removed i)) w.(i)
      and lj = frac_of_ext (loss_from ~base:base.(j) (Bfs.distance_sum removed j)) w.(j) in
      if frac_lt li !hi then hi := li;
      if frac_lt lj !hi then hi := lj);
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac !lo)
       ~lo_closed:(fst !lo <> inf && !tied)
       ~hi:(endpoint_of_frac !hi) ~hi_closed:true)

let make ?(name = "weighted_bcg")
    ?(describe = "bilateral connection game with per-player link-cost multipliers")
    ?(schema_tag = 3) ~weight () : Interval.t Game.t =
  (* Split the given name into the registry's family/params form, so an
     ad-hoc profile can be registered either as its own degenerate family
     ("wbcg_uniform") or as a member of one ("weighted_bcg:w=ones"). *)
  let family, params =
    match String.index_opt name ':' with
    | None -> (name, "")
    | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  in
  (module struct
    type region = Interval.t

    let family = family
    let params = params
    let name = name
    let describe = describe
    let region_kind = Game.Region.Interval
    let schema_tag = schema_tag
    (* No orbit quotient: w_i is not constant on automorphism orbits, so
       a representative toggle cannot stand for its orbit.  The subgroup
       is ignored and every pair is scanned. *)
    let stable_region_ws ws _sym g = stable_alpha_set_ws ~weight ws g
    let stable_region_reference g = stable_alpha_set_reference ~weight g
    let is_stable ~alpha g = is_stable ~weight ~alpha g
    let improving_moves = Some (fun ~alpha g -> improving_moves ~weight ~alpha g)
    let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
    let cost_model = Cost.Bcg
  end)
