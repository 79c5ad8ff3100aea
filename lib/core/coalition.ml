module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Kernel = Nf_graph.Kernel
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

(* Stability against coalitions of at most [k] players.
   A coalition S (2 ≤ |S| ≤ k) deviates by forming every absent link
   inside S; a single player deviates by severing one incident link
   (unilateral deletions need no consent at any k).  The deviation blocks
   a graph at link cost α when every member weakly gains and some member
   strictly gains:

     ∀ v∈S:  α·a_v ≤ Δ_v      and      ∃ v∈S:  α·a_v < Δ_v,

   where a_v counts v's new links and Δ_v is v's distance-cost decrease
   (with the [Bcg.ibenefit] infinity conventions).  With θ_S the minimum
   of Δ_v/a_v over paying members, S blocks exactly on [α < θ_S] when no
   member free-rides (some a_v = 0 with Δ_v > 0) and every paying
   member's ratio equals θ_S, and on [α ≤ θ_S] otherwise — so the stable
   set is a single interval (lo, hi] accumulated exactly like the BCG's
   lo/tied/hi scan, with pair benefits replaced by coalition ratios.

   The k = 1 instance has no consented additions at all and is the UCG
   Nash region (size-1 "coalitions" are unilateral deviations over owned
   links); the k = 2 instance enumerates exactly the single absent pairs
   and reproduces the BCG scan threshold-for-threshold — both parities
   are pinned by the differential tests.  The family's region kind is
   [Union] so all instances share one store schema; k ≥ 2 regions are
   one-interval unions.  Enumeration visits C(n, ≤k) coalitions, intended
   for the orders the empirical study enumerates. *)

let inf = Kernel.inf

(* fractions (num, den): den > 0, num = inf encodes +∞ *)
let frac_lt (an, ad) (bn, bd) = if an = inf then false else bn = inf || an * bd < bn * ad

let frac_eq (an, ad) (bn, bd) =
  if an = inf || bn = inf then an = bn else an * bd = bn * ad

let frac_min a b = if frac_lt b a then b else a
let frac_lt_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd < fn * Rat.den alpha
let frac_le_alpha alpha (fn, fd) = fn = inf || Rat.num alpha * fd <= fn * Rat.den alpha

let endpoint_of_frac (n, d) =
  if n = inf then Interval.Pos_inf else Interval.Finite (Rat.make n d)

let positive = Interval.open_closed Rat.zero Interval.Pos_inf

let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after
let iloss ~base after = if base = inf || after = inf then inf else after - base

let int_of_ext = function
  | Ext_int.Fin k -> k
  | Ext_int.Inf -> inf

(* Enumerate subsets of {0..n-1} of size 2..k (members accumulated in
   decreasing order) and hand each to [consider]. *)
let iter_coalitions ~n ~k consider =
  let rec go start members size =
    if size >= 2 then consider members;
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
  let free = ref false in
  List.iter
    (fun v ->
      let a = new_deg v and d = delta v in
      if a = 0 then begin
        if d <> 0 then free := true
      end
      else begin
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
  ((!theta : int * int), (not !free) && !all_eq)

(* ---- workspace kernel --------------------------------------------------- *)

(* Apply S's deviation on the workspace, compute (theta, tied), undo.
   [pairs] are S's absent internal pairs before toggling. *)
let scan_coalition_ws ws base members pairs =
  List.iter (fun (u, w) -> Kernel.toggle ws u w) pairs;
  let new_deg v =
    List.fold_left (fun c (u, w) -> if u = v || w = v then c + 1 else c) 0 pairs
  in
  let delta v = ibenefit ~base:base.(v) (Kernel.distance_sum_from ws v) in
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

let scan_ws ~k ws =
  let n = Kernel.order ws in
  let base = Kernel.all_distance_sums ws in
  let lo = ref (0, 1) and tied = ref true and hi = ref inf in
  iter_coalitions ~n ~k (fun members ->
      match absent_pairs_ws ws members with
      | [] -> ()
      | pairs ->
        let theta, tie = scan_coalition_ws ws base members pairs in
        if frac_lt !lo theta then begin
          lo := theta;
          tied := tie
        end
        else if frac_eq theta !lo && not tie then tied := false);
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Kernel.has_edge ws i j then begin
        Kernel.toggle ws i j;
        let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
        and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
        Kernel.toggle ws i j;
        if li < !hi then hi := li;
        if lj < !hi then hi := lj
      end
    done
  done;
  (!lo, !tied, !hi)

let stable_alpha_set_ws ~k ws g =
  Kernel.load ws g;
  let lo, tied, hi = scan_ws ~k ws in
  let hi_ep = if hi = inf then Interval.Pos_inf else Interval.Finite (Rat.of_int hi) in
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac lo)
       ~lo_closed:(fst lo <> inf && tied)
       ~hi:hi_ep ~hi_closed:true)

(* ---- persistent reference twin ------------------------------------------ *)

let absent_pairs g members =
  let rec go = function
    | [] -> []
    | v :: rest ->
      List.filter_map
        (fun u -> if Graph.has_edge g u v then None else Some (min u v, max u v))
        rest
      @ go rest
  in
  go members

let stable_alpha_set_reference ~k g =
  let n = Graph.order g in
  let base = Array.init n (fun v -> int_of_ext (Bfs.distance_sum g v)) in
  let lo = ref (0, 1) and tied = ref true and hi = ref inf in
  iter_coalitions ~n ~k (fun members ->
      match absent_pairs g members with
      | [] -> ()
      | pairs ->
        let g' = List.fold_left (fun g (u, w) -> Graph.add_edge g u w) g pairs in
        let new_deg v =
          List.fold_left (fun c (u, w) -> if u = v || w = v then c + 1 else c) 0 pairs
        in
        let delta v = ibenefit ~base:base.(v) (int_of_ext (Bfs.distance_sum g' v)) in
        let theta, tie = coalition_threshold ~members ~new_deg ~delta in
        if frac_lt !lo theta then begin
          lo := theta;
          tied := tie
        end
        else if frac_eq theta !lo && not tie then tied := false);
  Graph.iter_edges g (fun i j ->
      let l = int_of_ext (Bcg.severance_loss g i j)
      and l' = int_of_ext (Bcg.severance_loss g j i) in
      if l < !hi then hi := l;
      if l' < !hi then hi := l');
  let hi_ep = if !hi = inf then Interval.Pos_inf else Interval.Finite (Rat.of_int !hi) in
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac !lo)
       ~lo_closed:(fst !lo <> inf && !tied)
       ~hi:hi_ep ~hi_closed:true)

(* ---- point certifier ----------------------------------------------------- *)

let is_stable ~k ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let base = Kernel.all_distance_sums ws in
      let ok = ref true in
      (try
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if Kernel.has_edge ws i j then begin
               Kernel.toggle ws i j;
               let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
               and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
               Kernel.toggle ws i j;
               if
                 (not (frac_le_alpha alpha (li, 1)))
                 || not (frac_le_alpha alpha (lj, 1))
               then begin
                 ok := false;
                 raise_notrace Exit
               end
             end
           done
         done;
         iter_coalitions ~n ~k (fun members ->
             match absent_pairs_ws ws members with
             | [] -> ()
             | pairs ->
               let theta, tie = scan_coalition_ws ws base members pairs in
               let blocks =
                 if tie then frac_lt_alpha alpha theta
                 else frac_le_alpha alpha theta
               in
               if blocks then begin
                 ok := false;
                 raise_notrace Exit
               end)
       with Exit -> ());
      !ok)

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

    (* k = 1 rides the UCG's orbit-pruned orientation walk; the k ≥ 2
       scan is isomorphism-invariant but not yet quotiented, so it
       ignores the subgroup. *)
    let stable_region_ws ws sym g =
      if k = 1 then Ucg.nash_alpha_set_sym_ws ws sym g
      else Interval.Union.of_list [ stable_alpha_set_ws ~k ws g ]

    let stable_region_reference g =
      if k = 1 then Ucg.nash_alpha_set_reference g
      else Interval.Union.of_list [ stable_alpha_set_reference ~k g ]

    let is_stable ~alpha g =
      if k = 1 then Ucg.is_nash_graph ~alpha g else is_stable ~k ~alpha g

    (* Only k = 2 has graph-local single-link dynamics (the BCG's); k = 1
       best response depends on link ownership and k ≥ 3 deviations are
       multi-link. *)
    let improving_moves = if k = 2 then Some Bcg.improving_moves else None
    let alpha_of_link_cost c = if k = 1 then c else Rat.div c (Rat.of_int 2)
    let cost_model = if k = 1 then Cost.Ucg else Cost.Bcg
  end)
