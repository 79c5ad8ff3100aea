module Kernel = Nf_graph.Kernel
module Connectivity = Nf_graph.Connectivity
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

(* The adversary connection game (Kliemann, arXiv:1308.1832): bilateral
   link formation where player i's cost gains an expected-disconnection
   term under a uniformly random single-edge attack,

     c_i = α·deg(i) + Σ_j d(i,j) + S_i / m,

   with S_i = Σ over bridges b in i's component of the far-side size of b
   (Connectivity.separation_sums) and m the total edge count (S/m := 0
   when m = 0: nothing to attack).  Deviations are pairwise, exactly the
   BCG's (bilateral addition with consent, unilateral deletion), so the
   stable region is a single rational interval computed by the lo/hi
   fold every pairwise game shares ([Pairwise.stable_interval]) — with
   the BCG's integer thresholds replaced by exact fractions whose
   denominators are the edge counts before/after the toggle.

   Threshold conventions mirror [Pairwise.ibenefit]/[Pairwise.iloss]:
   an addition that connects a disconnected player has benefit +∞; when
   the player is disconnected both before and after, the distance part
   is 0 and the separation term still compares exactly; a deletion whose
   endpoint is disconnected on either side has loss +∞ (never
   improving).  In a connected graph every benefit and loss is ≥ 0 —
   adding an edge never creates a bridge and grows m, deleting one never
   destroys a bridge — so the region is an interval (lo, hi] ∩ (0, ∞]
   just as in the BCG.

   Exactness bound: threshold-vs-threshold comparisons cross-multiply
   numerators bounded by n³ with denominators up to m(m+1), which fits
   63-bit arithmetic for every enumerable order (n ≤ 62); threshold-vs-α
   comparisons (the move rule) are far smaller and safe at the
   sampled-dynamics orders too. *)

let inf = Kernel.inf

(* R(m, s) = s/m, with the edgeless convention *)
let rterm m s = if m = 0 then (0, 1) else (s, m)

(* benefit of an applied addition for one endpoint: dd = D − D' as the
   ibenefit convention (0 when disconnected both sides, ∞ when the edge
   connects the player), plus the exact change S/m − S'/m' *)
let benefit_frac ~base ~after ~sep ~sep' ~m ~m' =
  if base = inf && after <> inf then (inf, 1)
  else begin
    let dd = if base = inf then 0 else base - after in
    let rn, rd = rterm m sep and rn', rd' = rterm m' sep' in
    ((dd * rd * rd') + (rn * rd') - (rn' * rd), rd * rd')
  end

(* loss of an applied deletion for one endpoint: ∞ whenever the player is
   disconnected on either side (the weak deletion inequality then always
   holds, as in the BCG), else dd = D' − D plus S'/m' − S/m *)
let loss_frac ~base ~after ~sep ~sep' ~m ~m' =
  if base = inf || after = inf then (inf, 1)
  else begin
    let dd = after - base in
    let rn, rd = rterm m sep and rn', rd' = rterm m' sep' in
    ((dd * rd * rd') + (rn' * rd) - (rn * rd'), rd * rd')
  end

let edge_count_ws ws =
  let n = Kernel.order ws in
  let d = ref 0 in
  for v = 0 to n - 1 do
    d := !d + Kernel.degree ws v
  done;
  !d / 2

let separation_sums_ws ws =
  Connectivity.separation_sums ~n:(Kernel.order ws)
    ~iter_neighbors:(Kernel.iter_neighbors ws)

(* ---- pricing ------------------------------------------------------------
   The edge count and one lowpoint DFS for the base separation sums per
   graph, and per toggle one lowpoint DFS for the toggled state's
   separation sums, run by i's call and kept for j's; the caller
   supplies the distance sums.  Distance sums, m and separation sums are
   invariant under automorphisms, so the annotator prices one pair per
   orbit. *)
let price ws { Pairwise.before; after } =
  let m = edge_count_ws ws in
  let sep = separation_sums_ws ws in
  let sep' = ref sep in
  fun i j v ->
    if v = i then sep' := separation_sums_ws ws;
    let threshold, m' =
      if Kernel.has_edge ws i j then (benefit_frac, m + 1) else (loss_frac, m - 1)
    in
    threshold ~base:(before v) ~after:(after v) ~sep:sep.(v) ~sep':!sep'.(v) ~m ~m'

let stable_alpha_set_sym_ws ws sym g = Pairwise.stable_interval price ws sym g

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)

(* ---- the registered instance -------------------------------------------- *)

let game : Interval.t Game.t =
  (module struct
    type region = Interval.t

    let family = "adversary"
    let params = ""
    let name = Game.render_name ~family ~params

    let describe =
      "bilateral connection game under uniformly random single-edge attack \
       (expected-disconnection cost term)"

    let region_kind = Game.Region.Interval
    let schema_tag = 4
    let stable_region_ws = stable_alpha_set_sym_ws
    let pricing = Some price
    let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
    let cost_model = Cost.Adversary
  end)
