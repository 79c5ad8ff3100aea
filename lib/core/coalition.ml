module Kernel = Nf_graph.Kernel
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Pairwise.Frac

(* Stability against coalitions of at most [k] players.
   A coalition S (2 ≤ |S| ≤ k) deviates by forming every absent link
   inside S; a single player deviates by severing one incident link
   (unilateral deletions need no consent at any k).  The deviation blocks
   a graph at link cost α when every member weakly gains and some member
   strictly gains:

     ∀ v∈S:  α·a_v ≤ Δ_v      and      ∃ v∈S:  α·a_v < Δ_v,

   where a_v counts v's new links and Δ_v is v's distance-cost decrease
   (with the [Pairwise.ibenefit] infinity conventions).  With θ_S the minimum
   of Δ_v/a_v over paying members, S blocks exactly on [α < θ_S] when no
   member free-rides (some a_v = 0 with Δ_v > 0) and every paying
   member's ratio equals θ_S, and on [α ≤ θ_S] otherwise — so the stable
   set is a single interval (lo, hi] accumulated exactly like the BCG's
   lo/tied/hi scan, with pair benefits replaced by coalition ratios.
   No member can free-ride here: a member paying for no new link is
   already adjacent to every other member, so no new link shortens its
   paths and Δ_v = 0 — the tie is decided by the paying members alone.

   A 2-coalition has a_i = a_j = 1 and no free rider, so θ = min(Δ_i, Δ_j),
   tied iff Δ_i = Δ_j: the BCG's pair rule.  The unilateral deletions are
   the BCG's too, so the k ≥ 2 region is the BCG interval (the orbit-
   quotiented scan) intersected with the fold over the coalitions of size
   3..k; [Interval.inter] closes an equal lower end only when both sides
   are closed, i.e. when every attaining coalition ties.  The test
   oracle folds every coalition of size 2..k and every deletion itself,
   and the differential table pins the two equal.

   The k = 1 instance has no consented additions at all and is the UCG
   Nash region (size-1 "coalitions" are unilateral deviations over owned
   links).  The family's region kind is [Union] so all instances share
   one store schema; k ≥ 2 regions are one-interval unions.  Enumeration
   visits C(n, ≤k) coalitions, intended for the orders the empirical
   study enumerates. *)

let inf = Kernel.inf

(* Enumerate subsets of {0..n-1} of size 3..k (members
   accumulated in decreasing order) and hand each to [consider]. *)
let iter_coalitions ~n ~k consider =
  let rec go start members size =
    if size >= 3 then consider members;
    if size < k then
      for v = start to n - 1 do
        go (v + 1) (v :: members) (size + 1)
      done
  in
  go 0 [] 0

(* The coalition's blocking data in graph [g'] (the deviation applied):
   for each member v, a_v new links and the exact ratio Δ_v/a_v.  Returns
   [None] when S has no absent internal pair (no deviation), otherwise
   [Some (theta, tied)] per the blocking characterization above. *)
let coalition_threshold ~members ~new_deg ~delta =
  let theta = ref (inf, 1) and first = ref true and all_eq = ref true in
  List.iter
    (fun v ->
      let a = new_deg v in
      if a > 0 then begin
        let d = delta v in
        let f = if d = inf then (inf, 1) else (d, a) in
        if !first then begin
          theta := f;
          first := false
        end
        else begin
          if not (frac_eq f !theta) then all_eq := false;
          theta := frac_min f !theta
        end
      end)
    members;
  ((!theta : int * int), !all_eq)

(* ---- workspace kernel --------------------------------------------------- *)

(* Apply S's deviation on the workspace, compute (theta, tied), undo.
   [pairs] are S's absent internal pairs before toggling. *)
let scan_coalition_ws ws base members pairs =
  List.iter (fun (u, w) -> Kernel.toggle ws u w) pairs;
  let new_deg v =
    List.fold_left (fun c (u, w) -> if u = v || w = v then c + 1 else c) 0 pairs
  in
  let delta v = Pairwise.ibenefit ~base:base.(v) (Kernel.distance_sum_from ws v) in
  let r = coalition_threshold ~members ~new_deg ~delta in
  List.iter (fun (u, w) -> Kernel.toggle ws u w) pairs;
  r

let absent_pairs_ws ws members =
  let rec go = function
    | [] -> []
    | v :: rest ->
      List.filter_map
        (fun u -> if Kernel.has_edge ws u v then None else Some (min u v, max u v))
        rest
      @ go rest
  in
  go members

(* The lo/tied fold over the coalitions of size 3..k, as an interval
   (lo, +∞) or [lo, +∞); the pairs and the deletions are the BCG's. *)
let larger_coalitions_ws ~k ws =
  let base = Kernel.all_distance_sums ws in
  let lo = ref (0, 1) and tied = ref true in
  iter_coalitions ~n:(Kernel.order ws) ~k (fun members ->
      match absent_pairs_ws ws members with
      | [] -> ()
      | pairs ->
        let theta, tie = scan_coalition_ws ws base members pairs in
        if frac_lt !lo theta then begin
          lo := theta;
          tied := tie
        end
        else if frac_eq theta !lo && not tie then tied := false);
  Interval.make ~lo:(endpoint_of_frac !lo)
    ~lo_closed:(fst !lo <> inf && !tied)
    ~hi:Interval.Pos_inf ~hi_closed:false

let stable_alpha_set_ws ~k ws sym g =
  let pairs = Bcg.stable_alpha_set_sym_ws ws sym g in
  Interval.inter pairs (larger_coalitions_ws ~k ws)

(* ---- instances ----------------------------------------------------------- *)

let family_name = "coalition"

let make ~k : Interval.Union.t Game.t =
  if k < 1 || k > 8 then
    invalid_arg (Printf.sprintf "Coalition.make: k must be in 1..8 (got %d)" k);
  (module struct
    type region = Interval.Union.t

    let family = family_name
    let params = Printf.sprintf "k=%d" k
    let name = Game.render_name ~family ~params

    let describe =
      if k = 1 then
        "coalitional stability, coalitions of size <= 1 (the UCG Nash region)"
      else
        Printf.sprintf
          "coalitional stability: no coalition of size <= %d can profitably \
           form its absent internal links%s"
          k
          (if k = 2 then " (pairwise stability)" else "")

    let region_kind = Game.Region.Union
    let schema_tag = 5

    (* k = 1 rides the UCG's orbit-pruned orientation walk, k ≥ 2 the
       BCG's orbit-quotiented pair scan *)
    let stable_region_ws ws sym g =
      if k = 1 then Ucg.nash_alpha_set_sym_ws ws sym g
      else Interval.Union.of_list [ stable_alpha_set_ws ~k ws sym g ]

    (* Only k = 2 has graph-local single-link dynamics (the BCG's); k = 1
       best response depends on link ownership and k ≥ 3 deviations are
       multi-link. *)
    let pricing = if k = 2 then Some Bcg.price else None
    let alpha_of_link_cost c = if k = 1 then c else Rat.div c (Rat.of_int 2)
    let cost_model = if k = 1 then Cost.Ucg else Cost.Bcg
  end)
