module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

let default_weight i = 1 + (i mod 2)

let weights_of ~weight n =
  Array.init n (fun i ->
      let w = weight i in
      if w < 1 then
        invalid_arg (Printf.sprintf "Weighted_bcg: weight %d for player %d (must be >= 1)" w i);
      w)

(* ---- fraction thresholds ------------------------------------------------
   Player i pays w_i·α per link, so every BCG threshold k (an integer
   benefit or loss, Kernel.inf as ∞) turns into the rational k / w_i.
   Thresholds are compared as exact fractions (num, den) with den = w ≥ 1
   by cross-multiplication; num = inf encodes ∞ (any weight). *)

let inf = Kernel.inf

let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after
let iloss ~base after = if base = inf || after = inf then inf else after - base

let frac_lt (an, ad) (bn, bd) = if an = inf then false else bn = inf || an * bd < bn * ad

let frac_eq (an, ad) (bn, bd) =
  if an = inf || bn = inf then an = bn else an * bd = bn * ad

let frac_min a b = if frac_lt b a then b else a

let endpoint_of_frac (k, w) =
  if k = inf then Interval.Pos_inf else Interval.Finite (Rat.make k w)

let positive = Interval.open_closed Rat.zero Interval.Pos_inf

(* One pass over the toggles, mirroring Bcg.scan_stability_ws with the
   integer thresholds replaced by per-endpoint fractions: α_min is the
   max over non-edges of min(b_i/w_i, b_j/w_j) (attained — left end
   closed — exactly when every attaining pair ties), α_max the min over
   edge endpoints of l_i/w_i. *)
let scan_ws ~w ws =
  let n = Kernel.order ws in
  let base = Kernel.all_distance_sums ws in
  let lo = ref (0, 1) and tied = ref true and hi = ref (inf, 1) in
  for i = 0 to n - 2 do
    let bi_base = base.(i) in
    for j = i + 1 to n - 1 do
      if Kernel.has_edge ws i j then begin
        Kernel.toggle ws i j;
        let li = (iloss ~base:bi_base (Kernel.distance_sum_from ws i), w.(i)) in
        if frac_lt li !hi then hi := li;
        let lj = (iloss ~base:base.(j) (Kernel.distance_sum_from ws j), w.(j)) in
        if frac_lt lj !hi then hi := lj;
        Kernel.toggle ws i j
      end
      else begin
        Kernel.toggle ws i j;
        let ti = (ibenefit ~base:bi_base (Kernel.distance_sum_from ws i), w.(i))
        and tj = (ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j), w.(j)) in
        Kernel.toggle ws i j;
        let m = frac_min ti tj in
        if frac_lt !lo m then begin
          lo := m;
          tied := frac_eq ti tj
        end
        else if frac_eq m !lo && not (frac_eq ti tj) then tied := false
      end
    done
  done;
  (!lo, !hi, !tied)

let stable_alpha_set_ws ~weight ws g =
  Kernel.load ws g;
  let w = weights_of ~weight (Kernel.order ws) in
  let lo, hi, tied = scan_ws ~w ws in
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_frac lo)
       ~lo_closed:(fst lo <> inf && tied)
       ~hi:(endpoint_of_frac hi) ~hi_closed:true)

let stable_alpha_set ~weight g = Kernel.with_ws (fun ws -> stable_alpha_set_ws ~weight ws g)

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

(* α < k/w and α ≤ k/w by cross-multiplication: α = num/den (den > 0),
   w ≥ 1, so α < k/w ⟺ num·w < k·den. *)
let wlt alpha w k = k = inf || Rat.num alpha * w < k * Rat.den alpha
let wle alpha w k = k = inf || Rat.num alpha * w <= k * Rat.den alpha

let is_stable ~weight ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let w = weights_of ~weight n in
      let base = Kernel.all_distance_sums ws in
      let ok = ref true in
      (try
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             Kernel.toggle ws i j;
             if Kernel.has_edge ws i j then begin
               (* toggled a non-edge on: blocked when one endpoint strictly
                  gains and the other weakly accepts *)
               let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i)
               and bj = ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
               Kernel.toggle ws i j;
               if
                 (wlt alpha w.(i) bi && wle alpha w.(j) bj)
                 || (wlt alpha w.(j) bj && wle alpha w.(i) bi)
               then begin
                 ok := false;
                 raise_notrace Exit
               end
             end
             else begin
               let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
               and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
               Kernel.toggle ws i j;
               if (not (wle alpha w.(i) li)) || not (wle alpha w.(j) lj) then begin
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
let improving_moves ~weight ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let w = weights_of ~weight n in
      let base = Kernel.all_distance_sums ws in
      let moves = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if not (Kernel.has_edge ws i j) then begin
            Kernel.toggle ws i j;
            let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i)
            and bj = ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
            Kernel.toggle ws i j;
            if
              (wlt alpha w.(i) bi && wle alpha w.(j) bj)
              || (wlt alpha w.(j) bj && wle alpha w.(i) bi)
            then moves := Game.Add (i, j) :: !moves
          end
        done
      done;
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Kernel.has_edge ws i j then begin
            Kernel.toggle ws i j;
            let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
            and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
            Kernel.toggle ws i j;
            if not (wle alpha w.(i) li) then moves := Game.Delete (i, j) :: !moves;
            if not (wle alpha w.(j) lj) then moves := Game.Delete (j, i) :: !moves
          end
        done
      done;
      !moves)

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
    (* No orbit quotient: the weight profile is indexed by player
       identity (w_i is not constant on automorphism orbits), so the
       per-pair fraction thresholds are not isomorphism-invariant and a
       representative toggle cannot stand for its orbit.  The subgroup is
       ignored and every pair is scanned. *)
    let stable_region_ws ws _sym g = stable_alpha_set_ws ~weight ws g
    let stable_region_reference g = stable_alpha_set_reference ~weight g
    let is_stable ~alpha g = is_stable ~weight ~alpha g
    let improving_moves = Some (fun ~alpha g -> improving_moves ~weight ~alpha g)
    let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
    let cost_model = Cost.Bcg
  end)
