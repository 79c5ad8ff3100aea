module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
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

(* ---- persistent reference kernel ----------------------------------------
   The BFS-sharing scan over persistent graphs (base sums via
   Apsp.distance_sums, one fresh allocating BFS per endpoint per toggle).
   It is no longer the production path — the workspace scan below is — but
   stays as the independently-reviewed reference that the parity tests in
   test_pool.ml and test_kernel.ml compare against. *)

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

(* One pass over the non-edges computes α_min and the attainment flag
   together: track the running maximum of the pairwise willingness and
   whether every pair attaining it is a tie (both endpoints equally
   interested) — a new strict maximum resets the flag, an equal one refines
   it, smaller pairs cannot matter. *)
type scan = {
  scan_alpha_min : Ext_int.t;
  scan_alpha_max : Ext_int.t;
  scan_lo_closed : bool;
}

let scan_stability_reference g =
  let base = Apsp.distance_sums g in
  let lo = ref (Ext_int.Fin 0) in
  let tied = ref true in
  Graph.iter_non_edges g (fun i j ->
      let added = Graph.add_edge g i j in
      let bi = benefit_from ~base:base.(i) (Bfs.distance_sum added i)
      and bj = benefit_from ~base:base.(j) (Bfs.distance_sum added j) in
      let m = Ext_int.min bi bj in
      let c = Ext_int.compare m !lo in
      if c > 0 then begin
        lo := m;
        tied := Ext_int.equal bi bj
      end
      else if c = 0 && not (Ext_int.equal bi bj) then tied := false);
  let hi = ref Ext_int.Inf in
  Graph.iter_edges g (fun i j ->
      let removed = Graph.remove_edge g i j in
      hi := Ext_int.min !hi (loss_from ~base:base.(i) (Bfs.distance_sum removed i));
      hi := Ext_int.min !hi (loss_from ~base:base.(j) (Bfs.distance_sum removed j)));
  {
    scan_alpha_min = !lo;
    scan_alpha_max = !hi;
    scan_lo_closed =
      (match !lo with
      | Ext_int.Inf -> false
      | Ext_int.Fin _ -> !tied);
  }

(* ---- workspace kernel ---------------------------------------------------
   The production path: base distance sums from one bit-parallel
   all-sources sweep, then every edge toggle is two in-place xors plus one
   allocation-free single-source sweep per endpoint, with benefits/losses
   kept as raw ints (Kernel.inf as ∞) and α compared by integer
   cross-multiplication.  Toggle enumeration is the same lexicographic
   (i < j) order as Graph.iter_non_edges/iter_edges, and every max/min/tie
   update is order-independent, so the resulting intervals are structurally
   identical to the reference scan's. *)

let inf = Kernel.inf

(* i's cost decrease from adding a missing edge, as an int (inf = ∞).
   Adding cannot disconnect, so base finite ⇒ after finite. *)
let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after

(* i's cost increase from severing an edge; ∞ for a bridge or when i's cost
   is already infinite either way. *)
let iloss ~base after = if base = inf || after = inf then inf else after - base

(* α < k and α ≤ k for integer-or-infinite thresholds, by exact
   cross-multiplication (Rat.make normalizes to den > 0). *)
let rat_lt_i alpha k = k = inf || Rat.num alpha < k * Rat.den alpha
let rat_le_i alpha k = k = inf || Rat.num alpha <= k * Rat.den alpha

(* The three scan results packed as ints to keep the hot path mono-field:
   lo/hi with inf = ∞, tied as bool. *)
type iscan = {
  iscan_lo : int;
  iscan_hi : int;
  iscan_tied : bool;
}

(* One pass over the representative pairs of the subgroup's orbits
   (Symmetry.iter_pair_reps; every pair for the trivial subgroup).  An
   automorphism σ carries the toggle of {i,j} to the toggle of {σi,σj}
   and preserves distance sums, so the multiset {benefit_i, benefit_j}
   (resp. {loss_i, loss_j}) is constant on each orbit — every max/min/tie
   update the skipped pairs would contribute is already contributed, with
   the same operands, by their representative.  The folds are
   order-independent, so the result is structurally identical to the
   all-pairs scan's (test/test_orbit.ml diffs it per registered game).
   A twin pair has the transposition (i j) in the subgroup, so
   benefit_j = benefit_i and loss_j = loss_i exactly: one sweep serves
   both endpoints and the attaining pair always ties. *)
let scan_stability_ws ws sym =
  let base = Kernel.all_distance_sums ws in
  let lo = ref 0 and tied = ref true and hi = ref inf in
  Symmetry.iter_pair_reps sym (fun i j twin ->
      if Kernel.has_edge ws i j then begin
        Kernel.toggle ws i j;
        let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i) in
        if li < !hi then hi := li;
        if (not twin) && !hi > 0 then begin
          (* min with lj, skipped when hi is already 0 (cannot drop lower:
             losses are ≥ 0) — same result, fewer sweeps *)
          let lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
          if lj < !hi then hi := lj
        end;
        Kernel.toggle ws i j
      end
      else begin
        Kernel.toggle ws i j;
        let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i) in
        (* bi < lo ⇒ min(bi, bj) < lo: the pair can neither raise the max
           nor tie it, so j's sweep is skipped — same scan result *)
        if bi >= !lo then begin
          let bj =
            if twin then bi else ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j)
          in
          let m = if bi < bj then bi else bj in
          if m > !lo then begin
            lo := m;
            tied := bi = bj
          end
          else if m = !lo && bi <> bj then tied := false
        end;
        Kernel.toggle ws i j
      end);
  { iscan_lo = !lo; iscan_hi = !hi; iscan_tied = !tied }

let endpoint_of_int k = if k = inf then Interval.Pos_inf else Interval.Finite (Rat.of_int k)

let endpoint_of_ext = function
  | Ext_int.Fin k -> Interval.Finite (Rat.of_int k)
  | Ext_int.Inf -> Interval.Pos_inf

let positive = Interval.open_closed Rat.zero Interval.Pos_inf

let interval_of_iscan ~lo_closed s =
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_int s.iscan_lo) ~lo_closed
       ~hi:(endpoint_of_int s.iscan_hi) ~hi_closed:true)

let stability_interval g =
  Kernel.with_loaded g (fun ws ->
      interval_of_iscan ~lo_closed:false
        (scan_stability_ws ws (Symmetry.trivial (Graph.order g))))

(* The left end is attained exactly when every missing edge whose
   less-interested benefit equals α_min is a tie (both endpoints equally
   interested): at α = benefit the strict "ci < ci" premise of
   Definition 3 fails on both sides. *)
let stable_alpha_set_sym_ws ws sym g =
  Kernel.load ws g;
  let s = scan_stability_ws ws sym in
  interval_of_iscan ~lo_closed:(s.iscan_lo <> inf && s.iscan_tied) s

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)

let stable_alpha_set_reference g =
  let s = scan_stability_reference g in
  Interval.inter positive
    (Interval.make ~lo:(endpoint_of_ext s.scan_alpha_min) ~lo_closed:s.scan_lo_closed
       ~hi:(endpoint_of_ext s.scan_alpha_max) ~hi_closed:true)

(* unstable when one endpoint strictly gains (α < b) and the other does not
   strictly lose (α ≤ b) *)
let addition_blocks alpha bi bj =
  (rat_lt_i alpha bi && rat_le_i alpha bj) || (rat_lt_i alpha bj && rat_le_i alpha bi)

let no_improving_addition ~alpha ~base ws =
  let n = Kernel.order ws in
  let ok = ref true in
  (try
     for i = 0 to n - 2 do
       for j = i + 1 to n - 1 do
         if not (Kernel.has_edge ws i j) then begin
           Kernel.toggle ws i j;
           let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i)
           and bj = ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
           Kernel.toggle ws i j;
           if addition_blocks alpha bi bj then begin
             ok := false;
             raise_notrace Exit
           end
         end
       done
     done
   with Exit -> ());
  !ok

(* α ≤ α_max unfolded pairwise, sharing [base] and exiting early *)
let no_improving_deletion ~alpha ~base ws =
  let n = Kernel.order ws in
  let ok = ref true in
  (try
     for i = 0 to n - 2 do
       for j = i + 1 to n - 1 do
         if Kernel.has_edge ws i j then begin
           Kernel.toggle ws i j;
           let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
           and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
           Kernel.toggle ws i j;
           if (not (rat_le_i alpha li)) || not (rat_le_i alpha lj) then begin
             ok := false;
             raise_notrace Exit
           end
         end
       done
     done
   with Exit -> ());
  !ok

let is_pairwise_stable ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.all_distance_sums ws in
      no_improving_deletion ~alpha ~base ws && no_improving_addition ~alpha ~base ws)

let is_pairwise_nash ~alpha g =
  (* Nash part: no player gains by dropping any subset of its links (a
     unilateral deviation can only sever in the BCG — announcing new links
     without consent just costs α per announcement). *)
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
              if base.(i) <> inf && after <> inf then
                if (after - base.(i)) * Rat.den alpha < Rat.num alpha * k then nash_ok := false
            end)
      done;
      !nash_ok
      &&
      (* pairwise part: identical to the addition half of pairwise stability *)
      no_improving_addition ~alpha ~base ws)

let is_pairwise_stable_f ~alpha g =
  (* dyadic floats convert exactly; reject anything that does not *)
  let denom = 4096 in
  let scaled = alpha *. float_of_int denom in
  if Float.is_integer scaled then
    is_pairwise_stable ~alpha:(Rat.make (int_of_float scaled) denom) g
  else invalid_arg "Bcg.is_pairwise_stable_f: alpha not dyadic with denominator <= 4096"

let improving_addition ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.all_distance_sums ws in
      let n = Kernel.order ws in
      let found = ref None in
      (try
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if not (Kernel.has_edge ws i j) then begin
               Kernel.toggle ws i j;
               let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i)
               and bj = ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
               Kernel.toggle ws i j;
               if addition_blocks alpha bi bj then begin
                 found := Some (i, j);
                 raise_notrace Exit
               end
             end
           done
         done
       with Exit -> ());
      !found)

(* One kernel sweep for the base sums, then one allocation-free toggle
   evaluation per candidate move.  Moves are accumulated in exactly the
   order the historical persistent path produced them (additions in
   lexicographic (i, j) order, then per edge Delete (i, j) before
   Delete (j, i)), so [Prng.pick] in the dynamics draws the same move at
   every step and traces stay byte-identical across refactors. *)
let improving_moves ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.all_distance_sums ws in
      let n = Kernel.order ws in
      let num = Rat.num alpha
      and den = Rat.den alpha in
      let lt k = k = inf || num < k * den
      and le k = k = inf || num <= k * den in
      let moves = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if not (Kernel.has_edge ws i j) then begin
            Kernel.toggle ws i j;
            let bi = ibenefit ~base:base.(i) (Kernel.distance_sum_from ws i)
            and bj = ibenefit ~base:base.(j) (Kernel.distance_sum_from ws j) in
            Kernel.toggle ws i j;
            if (lt bi && le bj) || (lt bj && le bi) then
              moves := Game.Add (i, j) :: !moves
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
            if not (le li) then moves := Game.Delete (i, j) :: !moves;
            if not (le lj) then moves := Game.Delete (j, i) :: !moves
          end
        done
      done;
      !moves)

let improving_deletion ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.all_distance_sums ws in
      let n = Kernel.order ws in
      let found = ref None in
      (try
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if Kernel.has_edge ws i j then begin
               Kernel.toggle ws i j;
               let li = iloss ~base:base.(i) (Kernel.distance_sum_from ws i)
               and lj = iloss ~base:base.(j) (Kernel.distance_sum_from ws j) in
               Kernel.toggle ws i j;
               if not (rat_le_i alpha li) then begin
                 found := Some (i, j);
                 raise_notrace Exit
               end
               else if not (rat_le_i alpha lj) then begin
                 found := Some (j, i);
                 raise_notrace Exit
               end
             end
           done
         done
       with Exit -> ());
      !found)
