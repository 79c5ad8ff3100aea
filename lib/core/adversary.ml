module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Connectivity = Nf_graph.Connectivity
module Ext_int = Nf_util.Ext_int
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
   stable region is a single rational interval computed by the same
   lo/hi scan as [Bcg] — with the integer thresholds replaced by exact
   fractions whose denominators are the edge counts before/after the
   toggle.

   Threshold conventions mirror [Bcg.ibenefit]/[Bcg.iloss]: an addition
   that connects a disconnected player has benefit +∞; when the player is
   disconnected both before and after, the distance part is 0 and the
   separation term still compares exactly; a deletion whose endpoint is
   disconnected on either side has loss +∞ (never improving).  In a
   connected graph every benefit and loss is ≥ 0 — adding an edge never
   creates a bridge and grows m, deleting one never destroys a bridge —
   so the region is an interval (lo, hi] ∩ (0, ∞] just as in the BCG.

   Exactness bound: threshold-vs-threshold comparisons cross-multiply
   numerators bounded by n³ with denominators up to m(m+1), which fits
   63-bit arithmetic for every enumerable order (n ≤ 62); threshold-vs-α
   comparisons (is_stable, improving_moves) are far smaller and safe at
   the sampled-dynamics orders too. *)

let inf = Kernel.inf

(* fractions (num, den): den > 0 always, num = inf encodes +∞ *)
let frac_lt (an, ad) (bn, bd) = if an = inf then false else bn = inf || an * bd < bn * ad

let frac_eq (an, ad) (bn, bd) =
  if an = inf || bn = inf then an = bn else an * bd = bn * ad

let frac_min a b = if frac_lt b a then b else a

let endpoint_of_frac (k, d) =
  if k = inf then Interval.Pos_inf else Interval.Finite (Rat.make k d)

let positive = Interval.open_closed Rat.zero Interval.Pos_inf

(* α < f and α ≤ f for a threshold fraction (den > 0), by exact
   cross-multiplication *)
let frac_lt_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd < fn * Rat.den alpha
let frac_le_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd <= fn * Rat.den alpha

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

(* ---- workspace kernel ---------------------------------------------------
   The Bcg.scan_stability_ws shape: one all-sources sweep for the base
   distance sums, then per toggle two single-source sweeps plus one
   lowpoint DFS for the toggled state's separation sums (which serves
   both endpoints at once). *)
let scan_ws ws =
  let n = Kernel.order ws in
  let base = Kernel.all_distance_sums ws in
  let m = edge_count_ws ws in
  let sep = separation_sums_ws ws in
  let lo = ref (0, 1) and tied = ref true and hi = ref ((inf : int), 1) in
  for i = 0 to n - 2 do
    let bi_base = base.(i) in
    for j = i + 1 to n - 1 do
      if Kernel.has_edge ws i j then begin
        Kernel.toggle ws i j;
        let sep' = separation_sums_ws ws in
        let m' = m - 1 in
        let li =
          loss_frac ~base:bi_base
            ~after:(Kernel.distance_sum_from ws i)
            ~sep:sep.(i) ~sep':sep'.(i) ~m ~m'
        and lj =
          loss_frac ~base:base.(j)
            ~after:(Kernel.distance_sum_from ws j)
            ~sep:sep.(j) ~sep':sep'.(j) ~m ~m'
        in
        Kernel.toggle ws i j;
        if frac_lt li !hi then hi := li;
        if frac_lt lj !hi then hi := lj
      end
      else begin
        Kernel.toggle ws i j;
        let sep' = separation_sums_ws ws in
        let m' = m + 1 in
        let bi =
          benefit_frac ~base:bi_base
            ~after:(Kernel.distance_sum_from ws i)
            ~sep:sep.(i) ~sep':sep'.(i) ~m ~m'
        and bj =
          benefit_frac ~base:base.(j)
            ~after:(Kernel.distance_sum_from ws j)
            ~sep:sep.(j) ~sep':sep'.(j) ~m ~m'
        in
        Kernel.toggle ws i j;
        let p = frac_min bi bj in
        if frac_lt !lo p then begin
          lo := p;
          tied := frac_eq bi bj
        end
        else if frac_eq p !lo && not (frac_eq bi bj) then tied := false
      end
    done
  done;
  (!lo, !hi, !tied)

let stable_alpha_set_ws ws g =
  Kernel.load ws g;
  let lo, hi, tied = scan_ws ws in
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac lo)
       ~lo_closed:(fst lo <> inf && tied)
       ~hi:(endpoint_of_frac hi) ~hi_closed:true)

let stable_alpha_set g = Kernel.with_ws (fun ws -> stable_alpha_set_ws ws g)

(* ---- persistent reference twin ------------------------------------------
   Same scan over persistent graphs with deliberately different
   machinery: Apsp.distance_sums + one allocating BFS per endpoint per
   toggle for distances, and a naive remove-each-edge-and-diff-the-
   reachable-counts separation count instead of the lowpoint DFS. *)

let reachable_count g v =
  let c = ref 0 in
  Array.iter (fun d -> if d >= 0 then incr c) (Bfs.distances g v);
  !c

let separation_sums_naive g =
  let n = Graph.order g in
  let sep = Array.make n 0 in
  let before = Array.init n (fun v -> reachable_count g v) in
  List.iter
    (fun (u, w) ->
      let g' = Graph.remove_edge g u w in
      for v = 0 to n - 1 do
        sep.(v) <- sep.(v) + (before.(v) - reachable_count g' v)
      done)
    (Graph.edges g);
  sep

let int_of_ext = function
  | Ext_int.Fin k -> k
  | Ext_int.Inf -> inf

let stable_alpha_set_reference g =
  let base = Array.map int_of_ext (Apsp.distance_sums g) in
  let m = Graph.size g in
  let sep = separation_sums_naive g in
  let lo = ref (0, 1) and tied = ref true and hi = ref ((inf : int), 1) in
  Graph.iter_non_edges g (fun i j ->
      let added = Graph.add_edge g i j in
      let sep' = separation_sums_naive added in
      let m' = m + 1 in
      let bi =
        benefit_frac ~base:base.(i)
          ~after:(int_of_ext (Bfs.distance_sum added i))
          ~sep:sep.(i) ~sep':sep'.(i) ~m ~m'
      and bj =
        benefit_frac ~base:base.(j)
          ~after:(int_of_ext (Bfs.distance_sum added j))
          ~sep:sep.(j) ~sep':sep'.(j) ~m ~m'
      in
      let p = frac_min bi bj in
      if frac_lt !lo p then begin
        lo := p;
        tied := frac_eq bi bj
      end
      else if frac_eq p !lo && not (frac_eq bi bj) then tied := false);
  Graph.iter_edges g (fun i j ->
      let removed = Graph.remove_edge g i j in
      let sep' = separation_sums_naive removed in
      let m' = m - 1 in
      let li =
        loss_frac ~base:base.(i)
          ~after:(int_of_ext (Bfs.distance_sum removed i))
          ~sep:sep.(i) ~sep':sep'.(i) ~m ~m'
      and lj =
        loss_frac ~base:base.(j)
          ~after:(int_of_ext (Bfs.distance_sum removed j))
          ~sep:sep.(j) ~sep':sep'.(j) ~m ~m'
      in
      if frac_lt li !hi then hi := li;
      if frac_lt lj !hi then hi := lj);
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac !lo)
       ~lo_closed:(fst !lo <> inf && !tied)
       ~hi:(endpoint_of_frac !hi) ~hi_closed:true)

(* ---- point certifier and moves ------------------------------------------ *)

(* evaluate both endpoints' thresholds for one toggled pair, sharing the
   toggled state's separation DFS *)
let with_toggled ws i j f =
  Kernel.toggle ws i j;
  let r = f (separation_sums_ws ws) in
  Kernel.toggle ws i j;
  r

let is_stable ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let base = Kernel.all_distance_sums ws in
      let m = edge_count_ws ws in
      let sep = separation_sums_ws ws in
      let ok = ref true in
      (try
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if Kernel.has_edge ws i j then begin
               let li, lj =
                 with_toggled ws i j (fun sep' ->
                     ( loss_frac ~base:base.(i)
                         ~after:(Kernel.distance_sum_from ws i)
                         ~sep:sep.(i) ~sep':sep'.(i) ~m ~m':(m - 1),
                       loss_frac ~base:base.(j)
                         ~after:(Kernel.distance_sum_from ws j)
                         ~sep:sep.(j) ~sep':sep'.(j) ~m ~m':(m - 1) ))
               in
               if (not (frac_le_alpha alpha li)) || not (frac_le_alpha alpha lj) then begin
                 ok := false;
                 raise_notrace Exit
               end
             end
             else begin
               let bi, bj =
                 with_toggled ws i j (fun sep' ->
                     ( benefit_frac ~base:base.(i)
                         ~after:(Kernel.distance_sum_from ws i)
                         ~sep:sep.(i) ~sep':sep'.(i) ~m ~m':(m + 1),
                       benefit_frac ~base:base.(j)
                         ~after:(Kernel.distance_sum_from ws j)
                         ~sep:sep.(j) ~sep':sep'.(j) ~m ~m':(m + 1) ))
               in
               if
                 (frac_lt_alpha alpha bi && frac_le_alpha alpha bj)
                 || (frac_lt_alpha alpha bj && frac_le_alpha alpha bi)
               then begin
                 ok := false;
                 raise_notrace Exit
               end
             end
           done
         done
       with Exit -> ());
      !ok)

(* Same order contract as Bcg.improving_moves: additions in lexicographic
   (i, j) order, then per edge Delete (i, j) before Delete (j, i). *)
let improving_moves ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let base = Kernel.all_distance_sums ws in
      let m = edge_count_ws ws in
      let sep = separation_sums_ws ws in
      let moves = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if not (Kernel.has_edge ws i j) then begin
            let bi, bj =
              with_toggled ws i j (fun sep' ->
                  ( benefit_frac ~base:base.(i)
                      ~after:(Kernel.distance_sum_from ws i)
                      ~sep:sep.(i) ~sep':sep'.(i) ~m ~m':(m + 1),
                    benefit_frac ~base:base.(j)
                      ~after:(Kernel.distance_sum_from ws j)
                      ~sep:sep.(j) ~sep':sep'.(j) ~m ~m':(m + 1) ))
            in
            if
              (frac_lt_alpha alpha bi && frac_le_alpha alpha bj)
              || (frac_lt_alpha alpha bj && frac_le_alpha alpha bi)
            then moves := Game.Add (i, j) :: !moves
          end
        done
      done;
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Kernel.has_edge ws i j then begin
            let li, lj =
              with_toggled ws i j (fun sep' ->
                  ( loss_frac ~base:base.(i)
                      ~after:(Kernel.distance_sum_from ws i)
                      ~sep:sep.(i) ~sep':sep'.(i) ~m ~m':(m - 1),
                    loss_frac ~base:base.(j)
                      ~after:(Kernel.distance_sum_from ws j)
                      ~sep:sep.(j) ~sep':sep'.(j) ~m ~m':(m - 1) ))
            in
            if not (frac_le_alpha alpha li) then moves := Game.Delete (i, j) :: !moves;
            if not (frac_le_alpha alpha lj) then moves := Game.Delete (j, i) :: !moves
          end
        done
      done;
      !moves)

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
    (* The separation term is isomorphism-invariant, so an orbit quotient
       would be sound — it is just not implemented yet; the subgroup is
       ignored and every pair is scanned. *)
    let stable_region_ws ws _sym g = stable_alpha_set_ws ws g
    let stable_region_reference = stable_alpha_set_reference
    let is_stable = is_stable
    let improving_moves = Some improving_moves
    let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
    let cost_model = Cost.Adversary
  end)
