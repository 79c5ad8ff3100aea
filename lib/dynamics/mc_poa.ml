module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Bitset_w = Nf_util.Bitset_w
module Random_graph = Nf_graph.Random_graph
module Prng = Nf_util.Prng
module Rat = Nf_util.Rat
module Pool = Nf_util.Pool
module Theory = Netform.Theory
module Pairwise = Netform.Pairwise

(* Large-n Monte-Carlo price-of-anarchy estimation for the pairwise
   games.

   Exhaustive annotation stops at the enumerable orders; this module
   samples instead: seeded random initial graphs, a randomized
   first-improvement better-response walk run entirely inside a kernel
   workspace (exact distance rows priced and patched in place, edge
   toggles and allocation-free BFS only where a row can be neither
   patched nor kept and where a deletion's floor cannot rule it out, so
   n in the hundreds is a per-trial cost of seconds, not hours), and the
   exact-rational social cost of the resulting stable states against the
   closed-form optimum.

   Each slot is priced by the game's own pricing and judged by the
   shared pair-move rule ([Pairwise.improves]), so a converged trial is
   pairwise stable by [Pairwise.is_stable]'s own definition under that
   pricing — the tests pin exactly that. *)

let inf = Kernel.inf

type trial = {
  index : int;  (** trial number within the run *)
  seed : int;  (** derived per-trial PRNG seed *)
  init_edges : int;
  moves : int;  (** improving moves applied *)
  evals : int;  (** pair-slots evaluated (the convergence-time measure) *)
  converged : bool;  (** reached a pairwise-stable state within the budget *)
  final_edges : int;
  diameter : int;  (** of the final graph; [-1] when disconnected *)
  social_cost : Rat.t option;  (** exact, under the game's cost model; [None] when disconnected *)
  poa : Rat.t option;  (** social cost / the game's star/clique baseline *)
  final : Graph.t;
}

type summary = {
  n : int;
  alpha : Rat.t;
  trials : int;
  converged_trials : int;
  mean_poa : float;  (** over converged trials; [nan] when none *)
  max_poa : float;
  mean_moves : float;
  max_evals_seen : int;
  theory_bound : float;  (** [Theory.poa_upper_bound] at this α, n *)
}

(* how many endpoints pay for a link *)
let link_payers = function Netform.Cost.Ucg -> 1 | Bcg | Adversary -> 2

(* Closed-form min(star, clique) social cost per cost model, kept
   exact-rational.  Edge spend is [mult·αm] (both endpoints pay in the
   bilateral models); the adversary model adds the two topologies'
   total expected-separation terms (star: 2(n−1); K_n: 2 iff n = 2).
   For the classic games this IS the optimum (Lemma 4/5); for the
   adversary model it is only a baseline — C4 undercuts both star and
   clique on n = 4 for 1 < α < 4 — so adversary ratios are reported
   against the best classic skeleton, not a certified optimum. *)
let baseline_cost ~cost_model ~alpha n =
  let mult = link_payers cost_model in
  let sep_star, sep_clique =
    match cost_model with
    | Netform.Cost.Adversary -> (2 * (n - 1), if n = 2 then 2 else 0)
    | Netform.Cost.Bcg | Netform.Cost.Ucg -> (0, 0)
  in
  let star =
    Rat.add
      (Rat.mul (Rat.of_int (mult * (n - 1))) alpha)
      (Rat.of_int ((2 * (n - 1) * (n - 1)) + sep_star))
  in
  let clique =
    Rat.add
      (Rat.mul (Rat.of_int (mult * n * (n - 1) / 2)) alpha)
      (Rat.of_int ((n * (n - 1)) + sep_clique))
  in
  if Rat.compare star clique <= 0 then star else clique

(* closed-form optimum (Lemma 4/5): min of star and clique social cost —
   2α(n−1) + 2(n−1)² vs αn(n−1) + n(n−1), i.e. the BCG baseline *)
let optimum_cost ~alpha n = baseline_cost ~cost_model:Netform.Cost.Bcg ~alpha n

(* splitmix-style spread of the base seed so per-trial streams are
   independent of each other and of how trials land on domains *)
let trial_seed ~seed index = seed + (0x9E3779B9 * (index + 1))

let default_init_p n =
  if n < 2 then 0.0 else Float.min 1.0 ((log (float_of_int n) +. 1.0) /. float_of_int n)

(* The scan-order array is a trial's largest allocation (C(n,2) ints),
   so each domain keeps its last one for the next trial of the same
   order: the walk itself allocates so little that fresh arrays would
   pile up between major slices and set the peak heap.  Every slot is
   rewritten before the shuffle, so the draws are unchanged. *)
let scan_order_key = Domain.DLS.new_key (fun () -> [||])

(* the game's pricing, or the refusal [run] has always given a game
   without one *)
let pricing_of ~caller name =
  let (Netform.Game.Any (module G)) = Netform.Game_registry.find_exn name in
  match G.pricing with
  | Some price -> (price, G.cost_model)
  | None ->
    invalid_arg
      (Printf.sprintf
         "Mc_poa.%s: game %S has no improving-move generator (its dynamics are not graph-local)"
         caller name)

(* Exact social cost and diameter of the graph loaded in [ws], with [m]
   edges, off one all-sources sweep: [mult·αm + W] under the cost model,
   plus the adversary model's total expected separation [Σ_i S_i / m];
   [(None, -1)] when disconnected. *)
let final_cost ~cost_model ~alpha ws m =
  let n = Kernel.order ws in
  let sums = Kernel.all_distance_sums ws in
  let ecc = Kernel.eccentricities ws in
  let wiener = ref 0
  and diameter = ref 0
  and connected = ref true in
  for v = 0 to n - 1 do
    if sums.(v) = inf then connected := false
    else begin
      wiener := !wiener + sums.(v);
      if ecc.(v) > !diameter then diameter := ecc.(v)
    end
  done;
  if not !connected then (None, -1)
  else begin
    let cost =
      Rat.add (Rat.mul (Rat.of_int (link_payers cost_model * m)) alpha) (Rat.of_int !wiener)
    in
    let cost =
      match cost_model with
      | Netform.Cost.Adversary ->
        let s =
          Nf_graph.Connectivity.separation_sums ~n ~iter_neighbors:(Kernel.iter_neighbors ws)
        in
        Rat.add cost (Rat.make (Array.fold_left ( + ) 0 s) m)
      | Bcg | Ucg -> cost
    in
    (Some cost, !diameter)
  end

(* ---- exact pruning rules ----
   Both read the workspace with the deleted pair already toggled out,
   and distance rows exact on the graph G before the deletion. *)

(* Row retention after a deletion ab, row [v] exact on G, [ws] holding
   G − ab.  With d(v,a) = d(v,b) no shortest path from v crosses ab.
   Otherwise the two differ by one (ab was an edge); call the farther
   endpoint f.  When f keeps a neighbour u in G − ab with
   d(v,u) = d(v,f) − 1, no distance from v changes: a shortest v–u path
   in G avoids f (d(v,f) > d(v,u)), hence ab, and a shortest v–w path
   crossing ab crosses it once, into f, so replacing its prefix up to f
   by that v–u path and the edge uf keeps its length and avoids ab.
   Rows a and b are never kept: the one vertex one step nearer than f
   is the row's own vertex, no longer f's neighbour. *)
let deletion_keeps_row ws v a b =
  let n = Kernel.order ws
  and d = Kernel.distance_rows ws in
  let ov = 2 * v * n in
  let da = Bytes.get_uint16_ne d (ov + (2 * a))
  and db = Bytes.get_uint16_ne d (ov + (2 * b)) in
  if da = db then true
  else begin
    let f, near = if da < db then (b, da) else (a, db) in
    let words = Kernel.words ws
    and found = ref false
    and k = ref 0 in
    while (not !found) && !k < words do
      let c = ref (Kernel.row_word ws f !k) in
      while (not !found) && !c <> 0 do
        let bit = !c land - !c in
        let u = (!k * Bitset_w.bits_per_word) + Bitset_w.bit_index bit in
        if Bytes.get_uint16_ne d (ov + (2 * u)) = near then found := true;
        c := !c lxor bit
      done;
      incr k
    done;
    !found
  end

(* Deletion floor: with [ws] holding G − ij, a lower bound on
   D_i(G − ij) − D_i(G) from adjacency words alone.  No distance shrinks
   when an edge goes, so every vertex whose distance from i provably
   grows adds at least its growth:
   - j: d(i,j) goes from 1 to at least 2, and to at least 3 when i and j
     share no neighbour;
   - each w ∈ N(j) ∖ N[i]: d(i,w) = 2 in G (through j), and stays 2 in
     G − ij only through a neighbour shared with i there; with none it
     grows to at least 3.
   A bridge makes the exact difference ∞, above any floor. *)
let deletion_floor ws i j =
  let words = Kernel.words ws in
  let floor = ref 2 in
  for k = 0 to words - 1 do
    if Kernel.row_word ws i k land Kernel.row_word ws j k <> 0 then floor := 1
  done;
  for k = 0 to words - 1 do
    (* the toggle took i out of N(j) and j out of N(i) *)
    let c = ref (Kernel.row_word ws j k land lnot (Kernel.row_word ws i k)) in
    while !c <> 0 do
      let bit = !c land - !c in
      let w = (k * Bitset_w.bits_per_word) + Bitset_w.bit_index bit in
      let shared = ref false in
      for t = 0 to words - 1 do
        if Kernel.row_word ws w t land Kernel.row_word ws i t <> 0 then shared := true
      done;
      if not !shared then incr floor;
      c := !c lxor bit
    done
  done;
  !floor

let run_trial ?(game = "bcg") ~n ~alpha ~max_evals ~init_p ~seed index =
  if n < 2 then invalid_arg "Mc_poa.run_trial: need n >= 2";
  let price, cost_model = pricing_of ~caller:"run_trial" game in
  let tseed = trial_seed ~seed index in
  let rng = Prng.create tseed in
  let p = match init_p with Some p -> p | None -> default_init_p n in
  (* connected start: severing a bridge costs the severing player an
     infinite distance sum, so no improving deletion ever disconnects —
     a connected initial graph pins every final state to a finite social
     cost instead of the vacuously-stable multi-component artifacts a
     raw G(n,p) draw can fall into *)
  let g0 = Random_graph.connected_gnp rng n p in
  let init_edges = Graph.size g0 in
  (* the cyclic scan order: one seeded shuffle of the C(n,2) pairs *)
  let np = n * (n - 1) / 2 in
  let pairs =
    match Domain.DLS.get scan_order_key with
    | a when Array.length a = np -> a
    | _ -> Array.make np 0
  in
  (* held by this trial until its walk ends; a trial started meanwhile on
     this domain allocates its own *)
  Domain.DLS.set scan_order_key [||];
  let t = ref 0 in
  Nf_util.Subset.iter_pairs n (fun i j ->
      pairs.(!t) <- (i * n) + j;
      incr t);
  Prng.shuffle rng pairs;
  Kernel.with_loaded g0 (fun ws ->
      (* Exact distance rows: while [fresh.(v)], row [v] of the
         workspace's 16-bit slab [d] (d(v,w) at byte [2·(v·n + w)])
         holds d(v, ·) on the current graph, and [sum.(v)] its total
         ({!Kernel.inf} when some vertex is unreachable).  A stale row
         is rebuilt by one BFS the first time the walk reads it.
         Additions are priced from two rows without a sweep, an applied
         addition patches every fresh row in place, and an applied
         deletion invalidates only the rows the retention rule cannot
         keep. *)
      let d = Kernel.distance_rows ws
      and rinf = Kernel.row_inf in
      let sum = Array.make n 0
      and fresh = Array.make n false in
      let refresh v =
        if not fresh.(v) then begin
          sum.(v) <- Kernel.distances_from ws v;
          fresh.(v) <- true
        end
      in
      (* Σ_w min(d(i,w), 1 + d(j,w)) over rows at byte offsets [oi],
         [oj]: the distance sum of [i] once edge ij exists.  Exact: a
         shortest path from [i] that uses the new edge takes it first,
         so it costs 1 + d(j,w). *)
      let sum_through oi oj =
        let s = ref 0
        and reached = ref true in
        for w = 0 to n - 1 do
          let a = Bytes.get_uint16_ne d (oi + (2 * w))
          and b = Bytes.get_uint16_ne d (oj + (2 * w)) in
          let m = if b + 1 < a then b + 1 else a in
          if m = rinf then reached := false else s := !s + m
        done;
        if !reached then !s else inf
      in
      (* row [v] at byte offset [ov] after an applied addition whose
         endpoint nearer to [v] is at distance [near − 1]: every entry
         becomes min(d(v,w), near + d(far,w)) *)
      let patch_row v ov near ofar =
        let s = ref 0
        and reached = ref true in
        for w = 0 to n - 1 do
          let f = Bytes.get_uint16_ne d (ofar + (2 * w))
          and x = Bytes.get_uint16_ne d (ov + (2 * w)) in
          if f <> rinf && near + f < x then begin
            Bytes.set_uint16_ne d (ov + (2 * w)) (near + f);
            s := !s + near + f
          end
          else if x = rinf then reached := false
          else s := !s + x
        done;
        sum.(v) <- (if !reached then !s else inf)
      in
      (* applied addition ab: d'(v,w) = min(d(v,w), d(v,a)+1+d(b,w),
         d(v,b)+1+d(a,w)), since a shortest path crosses the new edge at
         most once.  When |d(v,a) − d(v,b)| ≤ 1 both detours are no
         shorter than d(v,w) by the triangle inequality, so only rows
         with one endpoint at least two steps nearer change, and only
         through the far endpoint's row.  Patching in place is safe:
         when v's far endpoint is b, row b may already be patched, but a
         patched entry d'(b,w) = 1 + d(a,w) offers v only the length
         d(v,a) + 2 + d(a,w) > d(v,w). *)
      let patch_addition a b =
        for v = 0 to n - 1 do
          if fresh.(v) then begin
            let ov = 2 * v * n in
            let dva = Bytes.get_uint16_ne d (ov + (2 * a))
            and dvb = Bytes.get_uint16_ne d (ov + (2 * b)) in
            if dva + 1 < dvb then patch_row v ov (dva + 1) (2 * b * n)
            else if dvb + 1 < dva then patch_row v ov (dvb + 1) (2 * a * n)
          end
        done
      in
      (* applied deletion ab, already toggled out: every fresh row the
         retention rule cannot keep goes stale; the rule only reads
         rows, so the order of the checks does not matter *)
      let invalidate_deletion a b =
        for v = 0 to n - 1 do
          if fresh.(v) && not (deletion_keeps_row ws v a b) then fresh.(v) <- false
        done
      in
      (* The sums the pricing reads for the slot (pi, pj): before from
         the two endpoints' rows, refreshed before the toggle; after,
         for an addition, through the other endpoint's row, and for a
         deletion from one sweep on the toggled workspace (the rows
         still describe the untoggled graph) — or, in the floor pass,
         before plus the deletion floor. *)
      let pi = ref 0
      and pj = ref 0
      and adding = ref false
      and flooring = ref false in
      let other v = if v = !pi then !pj else !pi in
      let sums =
        {
          Pairwise.before = (fun v -> sum.(v));
          after =
            (fun v ->
              if !adding then sum_through (2 * v * n) (2 * other v * n)
              else if !flooring then
                if sum.(v) = inf then inf else sum.(v) + deletion_floor ws v (other v)
              else Kernel.distance_sum_from ws v);
        }
      in
      let at = ref (price ws sums) in
      (* The floor pass: a deletion's thresholds on the floor sums.  A
         deletion threshold never decreases as [after] grows
         ([Pairwise.pricing]'s contract) and the floor's [after] is at
         most the exact one, so when no endpoint improves on the floor
         sums none improves on the exact ones, and the exact pass and
         its two sweeps are skipped. *)
      let floor_admits i j =
        flooring := true;
        let open_ = Pairwise.improves alpha !at ~added:false i j in
        flooring := false;
        open_
      in
      let m = ref init_edges
      and moves = ref 0
      and evals = ref 0
      and pass_moves = ref 0
      and stable = ref false
      and idx = ref 0 in
      while (not !stable) && !evals < max_evals do
        if !idx >= np then
          (* Convergence certificate: one complete pass over the C(n,2)
             pairs with no improving move — every pair was then evaluated
             on the same unchanging graph, which is pairwise stability by
             definition.  A count of consecutive clean evaluations would
             NOT do: the order is re-drawn between passes, and a clean
             window spanning two permutations can miss pairs entirely. *)
          if !pass_moves = 0 then stable := true
          else begin
            idx := 0;
            pass_moves := 0;
            (* a FIXED scan order can trap first-improvement dynamics in
               a deterministic better-response cycle (the BCG has no
               potential function); re-drawing the order every pass makes
               the walk a randomized round-based process that escapes
               such cycles with probability 1 *)
            Prng.shuffle rng pairs
          end
        else begin
          let code = pairs.(!idx) in
          incr idx;
          incr evals;
          let i = code / n
          and j = code mod n in
          refresh i;
          refresh j;
          pi := i;
          pj := j;
          adding := not (Kernel.has_edge ws i j);
          Kernel.toggle ws i j;
          (* the move rule is Pairwise's: bilateral consent for an
             addition, either endpoint for a deletion, j priced only
             when i leaves the verdict open; a deletion goes to the
             exact pass only when the floor pass leaves it open *)
          if
            (!adding || floor_admits i j) && Pairwise.improves alpha !at ~added:!adding i j
          then begin
            if !adding then begin
              incr m;
              patch_addition i j
            end
            else begin
              decr m;
              invalidate_deletion i j
            end;
            at := price ws sums;
            incr moves;
            incr pass_moves
          end
          else Kernel.toggle ws i j
        end
      done;
      Domain.DLS.set scan_order_key pairs;
      let social_cost, diameter = final_cost ~cost_model ~alpha ws !m in
      let final =
        Graph.build n (fun add ->
            for v = 0 to n - 1 do
              Kernel.iter_neighbors ws v (fun w -> if v < w then add v w)
            done)
      in
      {
        index;
        seed = tseed;
        init_edges;
        moves = !moves;
        evals = !evals;
        converged = !stable;
        final_edges = !m;
        diameter;
        social_cost;
        poa = Option.map (fun c -> Rat.div c (baseline_cost ~cost_model ~alpha n)) social_cost;
        final;
      })

let run ?pool ?(game = "bcg") ?init_p ?(max_evals_factor = 60) ~n ~alpha ~trials ~seed () =
  if n < 2 then invalid_arg "Mc_poa.run: need n >= 2";
  if trials < 1 then invalid_arg "Mc_poa.run: need trials >= 1";
  ignore (pricing_of ~caller:"run" game);
  let np = n * (n - 1) / 2 in
  let max_evals = max np (max_evals_factor * np) in
  Pool.parallel_map ?pool
    (run_trial ~game ~n ~alpha ~max_evals ~init_p ~seed)
    (List.init trials Fun.id)

let summarize ~n ~alpha results =
  let trials = List.length results in
  let converged = List.filter (fun t -> t.converged) results in
  let poas =
    List.filter_map (fun t -> Option.map Rat.to_float t.poa) converged
  in
  let mean_poa =
    match poas with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0.0 poas /. float_of_int (List.length poas)
  in
  let max_poa =
    match poas with
    | [] -> nan
    | _ -> List.fold_left Float.max neg_infinity poas
  in
  let mean_moves =
    match converged with
    | [] -> nan
    | _ ->
      List.fold_left (fun acc t -> acc +. float_of_int t.moves) 0.0 converged
      /. float_of_int (List.length converged)
  in
  {
    n;
    alpha;
    trials;
    converged_trials = List.length converged;
    mean_poa;
    max_poa;
    mean_moves;
    max_evals_seen = List.fold_left (fun acc t -> max acc t.evals) 0 results;
    theory_bound = Theory.poa_upper_bound ~alpha:(Rat.to_float alpha) ~n;
  }

(* ---------------- deterministic CSV ----------------
   Fixed seed ⇒ byte-identical output whatever the pool width: trials are
   seeded independently and [Pool.parallel_map] returns results in input
   order. *)

let csv_header =
  "trial,seed,n,alpha,init_edges,moves,evals,converged,final_edges,diameter,\
   social_cost,opt_cost,poa"

(* the opt_cost column is the ratio's denominator: the BCG closed-form
   optimum by default, the game's own cost-model baseline when ~game is
   passed (what [run ?game] divided by) *)
let csv_row ?game ~n ~alpha t =
  let cost_model =
    match game with
    | None -> Netform.Cost.Bcg
    | Some (Netform.Game.Any (module G)) -> G.cost_model
  in
  let opt = baseline_cost ~cost_model ~alpha n in
  Printf.sprintf "%d,%d,%d,%s,%d,%d,%d,%d,%d,%s,%s,%s,%s" t.index t.seed n
    (Rat.to_string alpha) t.init_edges t.moves t.evals
    (if t.converged then 1 else 0)
    t.final_edges
    (if t.diameter < 0 then "inf" else string_of_int t.diameter)
    (match t.social_cost with Some c -> Rat.to_string c | None -> "inf")
    (Rat.to_string opt)
    (match t.poa with Some r -> Printf.sprintf "%.6f" (Rat.to_float r) | None -> "inf")

let to_csv ?game ~n ~alpha results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun t ->
      Buffer.add_string buf (csv_row ?game ~n ~alpha t);
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let summary_to_string s =
  let b = Buffer.create 256 in
  Printf.bprintf b "mc-poa: n=%d alpha=%s trials=%d converged=%d\n" s.n
    (Rat.to_string s.alpha) s.trials s.converged_trials;
  Printf.bprintf b "  PoA estimate: mean=%.4f max=%.4f (converged trials)\n" s.mean_poa
    s.max_poa;
  Printf.bprintf b "  theory: PoA <= O(min(sqrt(a), n/sqrt(a))) = %.4f at this (a, n)\n"
    s.theory_bound;
  Printf.bprintf b "  convergence: mean moves=%.1f, worst evals=%d\n" s.mean_moves
    s.max_evals_seen;
  Buffer.contents b
