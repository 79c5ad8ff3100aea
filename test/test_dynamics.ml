(* Tests for nf_dynamics: fixed points are equilibria, convergence on
   known instances. *)

module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Prng = Nf_util.Prng
module Families = Nf_named.Families
module Game_dynamics = Nf_dynamics.Game_dynamics
module Ucg_dynamics = Nf_dynamics.Ucg_dynamics
open Netform

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let r = Rat.of_int
let rq = Rat.make
let bcg = Game.Any Game_registry.bcg

(* ---------------- BCG dynamics ---------------- *)

let test_bcg_stable_is_fixed_point () =
  (* stable graphs admit no moves *)
  check Alcotest.int "star at alpha=2" 0
    (List.length (Bcg.improving_moves ~alpha:(r 2) (Families.star 6)));
  check Alcotest.int "complete at alpha=1/2" 0
    (List.length (Bcg.improving_moves ~alpha:(rq 1 2) (Families.complete 6)))

let test_bcg_run_reaches_stability () =
  let rng = Prng.create 7 in
  let alphas = [ rq 1 2; r 1; r 2; r 4 ] in
  List.iter
    (fun alpha ->
      for _ = 1 to 20 do
        let seed = Nf_graph.Random_graph.connected_gnp rng 7 0.4 in
        let outcome = Game_dynamics.run bcg ~alpha ~rng seed in
        check_bool "converged" true outcome.Game_dynamics.converged;
        check_bool "fixed point is pairwise stable" true
          (Bcg.is_pairwise_stable ~alpha outcome.Game_dynamics.final)
      done)
    alphas

let test_bcg_small_alpha_completes () =
  (* at α < 1 the only stable graph is complete: the dynamics must build
     every edge *)
  let rng = Prng.create 11 in
  let outcome = Game_dynamics.run bcg ~alpha:(rq 1 2) ~rng (Families.path 6) in
  check_bool "reaches complete graph" true (Graph.is_complete outcome.Game_dynamics.final);
  check_bool "trace is all additions" true
    (List.for_all
       (function
         | Pairwise.Add _ -> true
         | Pairwise.Delete _ -> false)
       outcome.Game_dynamics.trace)

let test_bcg_trace_replays () =
  let rng = Prng.create 13 in
  let seed = Nf_graph.Random_graph.connected_gnp rng 6 0.5 in
  let outcome = Game_dynamics.run bcg ~alpha:(r 2) ~rng seed in
  let replayed =
    List.fold_left
      (fun g move ->
        match move with
        | Pairwise.Add (i, j) -> Graph.add_edge g i j
        | Pairwise.Delete (i, j) -> Graph.remove_edge g i j)
      seed outcome.Game_dynamics.trace
  in
  check (Alcotest.testable Graph.pp Graph.equal) "trace replays to final"
    outcome.Game_dynamics.final replayed

(* ---------------- UCG dynamics ---------------- *)

let test_ucg_nash_is_fixed_point () =
  (* center-owned star at α ≥ 1 is Nash: no player moves *)
  let star = Families.star 6 in
  let state = Ucg_dynamics.of_graph star ~owner:(fun i _ -> i) in
  (* owner = min endpoint = center 0 for star edges (0, k) *)
  check_bool "star state is nash" true (Ucg_dynamics.is_nash ~alpha:(r 2) state);
  let outcome = Ucg_dynamics.run ~alpha:(r 2) state in
  check Alcotest.int "no rounds needed" 0 outcome.Ucg_dynamics.rounds;
  check_bool "converged" true outcome.Ucg_dynamics.converged

let test_ucg_run_converges_to_nash () =
  let rng = Prng.create 23 in
  List.iter
    (fun alpha ->
      for _ = 1 to 10 do
        let g = Nf_graph.Random_graph.connected_gnp rng 6 0.5 in
        let state = Ucg_dynamics.of_graph g ~owner:(fun i _ -> i) in
        let outcome = Ucg_dynamics.run_random ~alpha ~rng state in
        if outcome.Ucg_dynamics.converged then
          check_bool "fixed point is nash" true
            (Ucg_dynamics.is_nash ~alpha outcome.Ucg_dynamics.final)
      done)
    [ rq 1 2; r 1; r 3 ]

let test_ucg_from_empty () =
  (* from the empty profile someone buys links: the result is connected
     whenever the dynamics converge (disconnection is never a best
     response at finite distance gain) *)
  let outcome = Ucg_dynamics.run ~alpha:(r 2) (Ucg_dynamics.empty 6) in
  check_bool "converged" true outcome.Ucg_dynamics.converged;
  check_bool "connected" true
    (Nf_graph.Connectivity.is_connected outcome.Ucg_dynamics.final.Ucg_dynamics.graph);
  check_bool "nash" true (Ucg_dynamics.is_nash ~alpha:(r 2) outcome.Ucg_dynamics.final)

let test_ucg_state_graph_consistent () =
  (* rebuilding keeps graph = union of owned sets *)
  let rng = Prng.create 29 in
  let g = Nf_graph.Random_graph.connected_gnp rng 6 0.5 in
  let state = Ucg_dynamics.of_graph g ~owner:(fun _ j -> j) in
  let outcome = Ucg_dynamics.run_random ~alpha:(r 1) ~rng state in
  let final = outcome.Ucg_dynamics.final in
  let expected = ref (Graph.empty 6) in
  Array.iteri
    (fun i targets ->
      Nf_util.Bitset.iter (fun j -> expected := Graph.add_edge !expected i j) targets)
    final.Ucg_dynamics.owned;
  check (Alcotest.testable Graph.pp Graph.equal) "graph = union of purchases" !expected
    final.Ucg_dynamics.graph

(* ---------------- Monte-Carlo PoA (large-n workload) ---------------- *)

module Mc_poa = Nf_dynamics.Mc_poa
module Pool = Nf_util.Pool

(* Reference oracle: the walk as it was before distance rows — every
   evaluation toggles the edge and runs fresh BFS, and endpoint sums are
   cached under per-vertex version stamps that one counter bump
   invalidates after every applied move.  Same seed derivation, start,
   scan order and predicates as [Mc_poa.run_trial], so the two must
   agree on every trial record. *)
module Oracle = struct
  module Kernel = Nf_graph.Kernel

  let inf = Kernel.inf
  let ibenefit ~base after = if base = inf then (if after = inf then 0 else inf) else base - after
  let iloss ~base after = if base = inf || after = inf then inf else after - base
  let trial_seed ~seed index = seed + (0x9E3779B9 * (index + 1))

  let run_trial ~n ~alpha ~max_evals ~seed index =
    let tseed = trial_seed ~seed index in
    let rng = Prng.create tseed in
    let g0 = Nf_graph.Random_graph.connected_gnp rng n (Mc_poa.default_init_p n) in
    let init_edges = Graph.size g0 in
    let np = n * (n - 1) / 2 in
    let pairs = Array.make np 0 in
    let t = ref 0 in
    Nf_util.Subset.iter_pairs n (fun i j ->
        pairs.(!t) <- (i * n) + j;
        incr t);
    Prng.shuffle rng pairs;
    Kernel.with_loaded g0 (fun ws ->
        let num = Rat.num alpha
        and den = Rat.den alpha in
        let lt k = k = inf || num < k * den
        and le k = k = inf || num <= k * den in
        let base = Array.make n 0
        and ver = Array.make n 0
        and cur = ref 1 in
        let base_of v =
          if ver.(v) <> !cur then begin
            base.(v) <- Kernel.distance_sum_from ws v;
            ver.(v) <- !cur
          end;
          base.(v)
        in
        let m = ref init_edges
        and moves = ref 0
        and evals = ref 0
        and pass_moves = ref 0
        and stable = ref false
        and idx = ref 0 in
        while (not !stable) && !evals < max_evals do
          if !idx >= np then
            if !pass_moves = 0 then stable := true
            else begin
              idx := 0;
              pass_moves := 0;
              Prng.shuffle rng pairs
            end
          else begin
            let code = pairs.(!idx) in
            incr idx;
            incr evals;
            let i = code / n
            and j = code mod n in
            let bi_base = base_of i in
            let bj_base = base_of j in
            Kernel.toggle ws i j;
            let improving =
              if Kernel.has_edge ws i j then begin
                let bi = ibenefit ~base:bi_base (Kernel.distance_sum_from ws i) in
                le bi
                &&
                let bj = ibenefit ~base:bj_base (Kernel.distance_sum_from ws j) in
                (lt bi && le bj) || (lt bj && le bi)
              end
              else
                (not (le (iloss ~base:bi_base (Kernel.distance_sum_from ws i))))
                || not (le (iloss ~base:bj_base (Kernel.distance_sum_from ws j)))
            in
            if improving then begin
              if Kernel.has_edge ws i j then incr m else decr m;
              incr moves;
              incr pass_moves;
              incr cur
            end
            else Kernel.toggle ws i j
          end
        done;
        let final =
          Graph.build n (fun add ->
              for v = 0 to n - 1 do
                Kernel.iter_neighbors ws v (fun w -> if v < w then add v w)
              done)
        in
        (* final statistics off the persistent-graph BFS, independent of
           the kernel's all-sources sweep *)
        let connected = Nf_graph.Connectivity.is_connected final in
        let fin = function Nf_util.Ext_int.Fin x -> x | Nf_util.Ext_int.Inf -> -1 in
        let wiener = ref 0
        and diameter = ref (if connected then 0 else -1) in
        if connected then
          for v = 0 to n - 1 do
            wiener := !wiener + fin (Nf_graph.Bfs.distance_sum final v);
            diameter := max !diameter (fin (Nf_graph.Bfs.eccentricity final v))
          done;
        let social_cost =
          if connected then Some (Rat.add (Rat.mul (r (2 * !m)) alpha) (r !wiener)) else None
        in
        {
          Mc_poa.index;
          seed = tseed;
          init_edges;
          moves = !moves;
          evals = !evals;
          converged = !stable;
          final_edges = !m;
          diameter = !diameter;
          social_cost;
          poa = Option.map (fun c -> Rat.div c (Mc_poa.optimum_cost ~alpha n)) social_cost;
          final;
        })
end

let test_mc_poa_trial_deterministic () =
  (* identical arguments must reproduce the trial record bit-for-bit,
     including the final graph *)
  let go () =
    Mc_poa.run_trial ~n:40 ~alpha:(r 3) ~max_evals:(60 * 780) ~init_p:None ~seed:12345 0
  in
  let t1 = go () and t2 = go () in
  check_bool "trial records identical" true (t1 = t2);
  check_bool "converged" true t1.Mc_poa.converged

(* the distance-row walk against the oracle: equal trial records —
   moves, evals, convergence, final graph, social cost — at α on both
   sides of every regime boundary *)
let rows_vs_oracle ~orders ~seeds () =
  List.iter
    (fun n ->
      let np = n * (n - 1) / 2 in
      let max_evals = max np (60 * np) in
      List.iter
        (fun alpha ->
          List.iter
            (fun seed ->
              let want = Oracle.run_trial ~n ~alpha ~max_evals ~seed 0 in
              let got = Mc_poa.run_trial ~n ~alpha ~max_evals ~init_p:None ~seed 0 in
              let what =
                Printf.sprintf "n=%d alpha=%s seed=%d" n (Rat.to_string alpha) seed
              in
              check Alcotest.int (what ^ ": moves") want.Mc_poa.moves got.Mc_poa.moves;
              check Alcotest.int (what ^ ": evals") want.Mc_poa.evals got.Mc_poa.evals;
              check_bool (what ^ ": record") true (want = got);
              if got.Mc_poa.converged then
                check_bool (what ^ ": converged final pairwise stable") true
                  (Bcg.is_pairwise_stable ~alpha got.Mc_poa.final))
            seeds)
        [ rq 1 2; r 1; r 2; r 7; r 30 ])
    orders

let test_mc_poa_pool_width_parity () =
  (* the CSV is the cross-job determinism contract: jobs=1 and jobs=4 must
     produce byte-identical output for the same seed *)
  let n = 32
  and alpha = r 2
  and trials = 3
  and seed = 99 in
  let p1 = Pool.create ~jobs:1
  and p4 = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () ->
      let a = Mc_poa.run ~pool:p1 ~n ~alpha ~trials ~seed () in
      let b = Mc_poa.run ~pool:p4 ~n ~alpha ~trials ~seed () in
      check Alcotest.string "csv identical across pool widths"
        (Mc_poa.to_csv ~n ~alpha a) (Mc_poa.to_csv ~n ~alpha b))

let test_mc_poa_converged_is_stable () =
  (* the walk's improving-move predicates are Bcg's, so converged finals
     must pass the reference stability check — past the one-word ceiling *)
  List.iter
    (fun alpha ->
      let ts = Mc_poa.run ~n:70 ~alpha ~trials:2 ~seed:4242 () in
      List.iter
        (fun t ->
          check_bool "converged within budget" true t.Mc_poa.converged;
          check_bool "final is pairwise stable" true
            (Bcg.is_pairwise_stable ~alpha t.Mc_poa.final);
          check_bool "connected final has social cost" true
            (t.Mc_poa.social_cost <> None);
          match t.Mc_poa.poa with
          | None -> Alcotest.fail "converged connected trial must report PoA"
          | Some q -> check_bool "poa >= 1" true (Rat.compare q (r 1) >= 0))
        ts)
    [ r 2; r 5 ]

let test_mc_poa_summary_csv_and_guards () =
  let n = 32
  and alpha = r 2 in
  let ts = Mc_poa.run ~n ~alpha ~trials:4 ~seed:7 () in
  let s = Mc_poa.summarize ~n ~alpha ts in
  check Alcotest.int "trials" 4 s.Mc_poa.trials;
  check_bool "converged_trials <= trials" true (s.Mc_poa.converged_trials <= 4);
  check (Alcotest.float 1e-9) "theory bound"
    (Theory.poa_upper_bound ~alpha:(Rat.to_float alpha) ~n)
    s.Mc_poa.theory_bound;
  if s.Mc_poa.converged_trials > 0 then begin
    check_bool "mean poa >= 1" true (s.Mc_poa.mean_poa >= 1.0);
    check_bool "max >= mean" true (s.Mc_poa.max_poa >= s.Mc_poa.mean_poa)
  end;
  let csv = Mc_poa.to_csv ~n ~alpha ts in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "csv is header + one row per trial" 5 (List.length lines);
  check Alcotest.string "csv header" Mc_poa.csv_header (List.hd lines);
  Alcotest.check_raises "n too small" (Invalid_argument "Mc_poa.run: need n >= 2")
    (fun () -> ignore (Mc_poa.run ~n:1 ~alpha ~trials:1 ~seed:1 ()));
  Alcotest.check_raises "trials too small"
    (Invalid_argument "Mc_poa.run: need trials >= 1") (fun () ->
      ignore (Mc_poa.run ~n:8 ~alpha ~trials:0 ~seed:1 ()))

(* ---------------- the pair-slot walk, every game with a pricing ---------------- *)

(* every registered game whose dynamics are pairwise, by its CLI name *)
let walk_games = [ "bcg"; "transfers"; "weighted_bcg"; "adversary"; "coalition:k=2" ]
let walk_alphas = [ rq 1 2; r 1; r 2; r 7; r 30 ]
let walk name ~n ~alpha ~max_evals ~seed =
  Mc_poa.run_trial ~game:name ~n ~alpha ~max_evals ~init_p:None ~seed 0

(* The walk one evaluation at a time: the trial with budget k + 1 either
   ends on the budget-k final or applies exactly one more move, and that
   move is one of the game's improving moves at the budget-k final.
   Every trial converges within run's default budget, and its final has
   no improving move left. *)
let walk_single_steps name () =
  let game = Game_registry.find_exn name in
  let moves_at alpha (t : Mc_poa.trial) = Game.improving_moves game ~alpha t.final in
  List.iter
    (fun n ->
      let cap = 60 * n * (n - 1) / 2 in
      List.iter
        (fun alpha ->
          List.iter
            (fun seed ->
              let what =
                Printf.sprintf "%s n=%d alpha=%s seed=%d" name n (Rat.to_string alpha) seed
              in
              let trial k = walk name ~n ~alpha ~max_evals:k ~seed in
              let rec go k (prev : Mc_poa.trial) =
                if prev.converged then
                  check_bool (what ^ ": converged final has no improving move") true
                    (moves_at alpha prev = [])
                else begin
                  check_bool (what ^ ": converged within budget") true (k < cap);
                  let next = trial (k + 1) in
                  if next.moves = prev.moves then
                    check_bool (what ^ ": no move, same final") true
                      (Graph.equal prev.final next.final)
                  else begin
                    check Alcotest.int (what ^ ": one move per evaluation") (prev.moves + 1)
                      next.moves;
                    check_bool (what ^ ": the move is improving") true
                      (List.exists
                         (fun mv -> Graph.equal (Game_dynamics.apply prev.final mv) next.final)
                         (moves_at alpha prev))
                  end;
                  go (k + 1) next
                end
              in
              go 1 (trial 1))
            [ 1; 29 ])
        walk_alphas)
    [ 3; 9; 12 ]

(* past the one-word kernel: the n = 70 trial converges, and its final
   is pairwise stable under the game's own pricing *)
let walk_multiword name () =
  let alpha = r 2 in
  let t = walk name ~n:70 ~alpha ~max_evals:(60 * 2415) ~seed:4242 in
  let (Game.Any (module G)) = Game_registry.find_exn name in
  check_bool (name ^ ": n = 70 trial converged") true t.converged;
  check_bool (name ^ ": n = 70 final is pairwise stable") true
    (Pairwise.is_stable (Option.get G.pricing) ~alpha t.final)

(* ---------------- the walk's exact pruning rules ---------------- *)

module Kernel = Nf_graph.Kernel

(* A random connected graph with one, two or three row words (by the
   seed mod 3), at one to four times the walk's start density, and a
   random edge (a, b) of it, a < b, loaded in a kernel workspace. *)
let pruning_case = QCheck.int_bound 1_000_000

let with_case seed f =
  let rng = Prng.create seed in
  let n = (62 * (seed mod 3)) + 2 + Prng.int rng 61 in
  let p = Mc_poa.default_init_p n *. float_of_int (1 + Prng.int rng 4) in
  let g = Nf_graph.Random_graph.connected_gnp rng n p in
  let a, b = Prng.pick rng (Graph.edges g) in
  Kernel.with_loaded g (fun ws -> f rng ws n (min a b) (max a b))

(* every row the retention rule keeps after deleting ab equals its BFS
   row on G − ab *)
let prop_retention_exact =
  QCheck.Test.make ~name:"rows kept by the retention rule are exact on G - ab" ~count:60
    pruning_case (fun case ->
      with_case case (fun _ ws n a b ->
          let rows = Kernel.distance_rows ws in
          for v = 0 to n - 1 do
            ignore (Kernel.distances_from ws v)
          done;
          let on_g = Bytes.copy rows in
          Kernel.toggle ws a b;
          let kept = Array.init n (fun v -> Mc_poa.deletion_keeps_row ws v a b) in
          let ok = ref true in
          for v = 0 to n - 1 do
            if kept.(v) then begin
              ignore (Kernel.distances_from ws v);
              if Bytes.sub rows (2 * v * n) (2 * n) <> Bytes.sub on_g (2 * v * n) (2 * n) then
                ok := false
            end
          done;
          !ok))

(* the floor is at least 1 and never above D_v(G − ab) − D_v(G), which
   is ∞ on a bridge *)
let prop_floor_below_exact =
  QCheck.Test.make ~name:"deletion floor <= exact loss, for both endpoints" ~count:60
    pruning_case (fun case ->
      with_case case (fun _ ws _ a b ->
          let da = Kernel.distance_sum_from ws a
          and db = Kernel.distance_sum_from ws b in
          Kernel.toggle ws a b;
          let below v u d0 =
            let floor = Mc_poa.deletion_floor ws v u
            and d1 = Kernel.distance_sum_from ws v in
            floor >= 1 && (d1 = Kernel.inf || floor <= d1 - d0)
          in
          below a b da && below b a db))

(* Pairwise.pricing's contract, for every pricing the walk runs: on a
   deletion, a pass at larger [after] sums gives each endpoint a
   threshold no smaller than a pass at smaller ones (5 stands for ∞) *)
let prop_deletion_threshold_monotone =
  QCheck.Test.make ~name:"deletion thresholds never decrease as after grows" ~count:60
    pruning_case (fun case ->
      with_case case (fun rng ws n i j ->
          let before = Array.copy (Kernel.all_distance_sums ws)
          and after = Array.make n 0 in
          let sums = { Pairwise.before = (fun v -> before.(v)); after = (fun v -> after.(v)) } in
          let grow x =
            match Prng.int rng 6 with
            | _ when x = Kernel.inf -> x
            | 5 -> Kernel.inf
            | k -> x + k
          in
          List.for_all
            (fun name ->
              let (Game.Any (module G)) = Game_registry.find_exn name in
              let at = Option.get G.pricing ws sums in
              let pass ai aj =
                after.(i) <- ai;
                after.(j) <- aj;
                (* i before j: a pair's components evaluate right to left *)
                let ti = at i j i in
                (ti, at i j j)
              in
              let ai = grow before.(i) and aj = grow before.(j) in
              Kernel.toggle ws i j;
              let ti, tj = pass ai aj in
              let ti', tj' = pass (grow ai) (grow aj) in
              Kernel.toggle ws i j;
              (not (Pairwise.Frac.frac_lt ti' ti)) && not (Pairwise.Frac.frac_lt tj' tj))
            walk_games))

(* the 4-cycle 0-1-2-3 without 01: rows 2 and 3 keep their distances
   (each row's farther endpoint keeps a neighbour one step nearer: 3
   for row 2, 2 for row 3), rows 0 and 1 do not; the floor, 2 for both
   endpoints, is the exact loss (D_0 goes from 4 to 6) *)
let test_pruning_cycle4 () =
  Kernel.with_loaded (Families.cycle 4) (fun ws ->
      for v = 0 to 3 do
        ignore (Kernel.distances_from ws v)
      done;
      Kernel.toggle ws 0 1;
      check (Alcotest.list Alcotest.bool) "rows kept" [ false; false; true; true ]
        (List.init 4 (fun v -> Mc_poa.deletion_keeps_row ws v 0 1));
      check Alcotest.int "floor of 0" 2 (Mc_poa.deletion_floor ws 0 1);
      check Alcotest.int "floor of 1" 2 (Mc_poa.deletion_floor ws 1 0);
      check Alcotest.int "exact loss of 0" 2 (Kernel.distance_sum_from ws 0 - 4))

(* ---------------- Meta (Jackson-Watts digraph) ---------------- *)

let test_meta_counts_match_equilibria () =
  (* the meta analysis' stable count over labeled graphs must agree with a
     direct scan *)
  let alpha = r 2 in
  let a = Nf_dynamics.Meta.analyze ~alpha ~n:4 in
  let direct = ref 0 in
  Nf_enum.Labeled.iter_all 4 (fun g ->
      if Bcg.is_pairwise_stable ~alpha g then incr direct);
  check Alcotest.int "stable counts agree" !direct a.Nf_dynamics.Meta.stable;
  check Alcotest.int "total is 2^6" 64 a.Nf_dynamics.Meta.total

let test_meta_no_closed_cycles () =
  List.iter
    (fun alpha ->
      let a = Nf_dynamics.Meta.analyze ~alpha ~n:4 in
      check_bool "no closed cycles" true (Nf_dynamics.Meta.no_closed_cycles a))
    [ rq 1 2; r 1; rq 3 2; r 3; r 7 ]

let test_meta_reaches_stable () =
  check_bool "path reaches" true
    (Nf_dynamics.Meta.reaches_stable ~alpha:(r 2) (Families.path 5));
  check_bool "stable graph trivially reaches" true
    (Nf_dynamics.Meta.reaches_stable ~alpha:(r 2) (Families.star 5));
  Alcotest.check_raises "n too large" (Invalid_argument "Meta: order out of range (2..6)")
    (fun () -> ignore (Nf_dynamics.Meta.reaches_stable ~alpha:(r 2) (Families.star 8)))

(* ---------------- Stochastic stability ---------------- *)

let test_stochastic_resistances () =
  let stable, r = Nf_dynamics.Stochastic.resistances ~alpha:(r 2) ~n:4 in
  let v = List.length stable in
  check_bool "some stable states" true (v > 0);
  for i = 0 to v - 1 do
    check Alcotest.int "zero diagonal" 0 r.(i).(i);
    for j = 0 to v - 1 do
      if i <> j then
        check_bool "off-diagonal in [1, bits]" true (r.(i).(j) >= 1 && r.(i).(j) <= 6)
    done
  done

let test_stochastic_selects_connected () =
  List.iter
    (fun alpha ->
      let v = Nf_dynamics.Stochastic.analyze ~alpha ~n:4 in
      let ss = v.Nf_dynamics.Stochastic.stochastically_stable in
      check_bool "nonempty" true (ss <> []);
      (* every winner is a stable state *)
      List.iter
        (fun g -> check_bool "winner is stable" true (Bcg.is_pairwise_stable ~alpha g))
        ss;
      (* the observed characterization: winners = connected stable states *)
      let connected_stable =
        List.filter Nf_graph.Connectivity.is_connected v.Nf_dynamics.Stochastic.stable
      in
      check Alcotest.int "winners = connected stable" (List.length connected_stable)
        (List.length ss);
      List.iter
        (fun g -> check_bool "winner connected" true (Nf_graph.Connectivity.is_connected g))
        ss)
    [ rq 3 2; r 2; r 5 ]

let test_stochastic_classes_dedupe () =
  let v = Nf_dynamics.Stochastic.analyze ~alpha:(r 2) ~n:4 in
  let classes = Nf_dynamics.Stochastic.stochastically_stable_classes v in
  let keys = List.map Nf_graph.Graph.adjacency_key classes in
  check Alcotest.int "distinct classes" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  check_bool "fewer classes than labeled" true
    (List.length classes <= List.length v.Nf_dynamics.Stochastic.stochastically_stable)

let test_stochastic_guards () =
  Alcotest.check_raises "n too large" (Invalid_argument "Stochastic: order out of range (2..5)")
    (fun () -> ignore (Nf_dynamics.Stochastic.resistances ~alpha:(r 2) ~n:6))

let () =
  Alcotest.run "nf_dynamics"
    [
      ( "bcg",
        [
          Alcotest.test_case "fixed points" `Quick test_bcg_stable_is_fixed_point;
          Alcotest.test_case "reaches stability" `Quick test_bcg_run_reaches_stability;
          Alcotest.test_case "small alpha completes" `Quick test_bcg_small_alpha_completes;
          Alcotest.test_case "trace replays" `Quick test_bcg_trace_replays;
        ] );
      ( "ucg",
        [
          Alcotest.test_case "nash fixed point" `Quick test_ucg_nash_is_fixed_point;
          Alcotest.test_case "converges to nash" `Quick test_ucg_run_converges_to_nash;
          Alcotest.test_case "from empty" `Quick test_ucg_from_empty;
          Alcotest.test_case "state consistency" `Quick test_ucg_state_graph_consistent;
        ] );
      ( "mc_poa",
        [
          Alcotest.test_case "trial determinism" `Quick test_mc_poa_trial_deterministic;
          Alcotest.test_case "distance rows = oracle" `Quick
            (rows_vs_oracle ~orders:[ 2; 3; 9; 40 ] ~seeds:[ 1; 29; 404; 7777 ]);
          Alcotest.test_case "distance rows = oracle past 62" `Slow
            (rows_vs_oracle ~orders:[ 64; 70 ] ~seeds:[ 1; 29 ]);
          Alcotest.test_case "pool width parity" `Quick test_mc_poa_pool_width_parity;
          Alcotest.test_case "converged finals stable" `Quick test_mc_poa_converged_is_stable;
          Alcotest.test_case "summary, csv, guards" `Quick test_mc_poa_summary_csv_and_guards;
        ] );
      ( "mc_poa walk",
        List.concat_map
          (fun name ->
            [
              Alcotest.test_case (name ^ " single steps") `Quick (walk_single_steps name);
              Alcotest.test_case (name ^ " multi-word final") `Slow (walk_multiword name);
            ])
          walk_games );
      ( "mc_poa pruning",
        [
          Alcotest.test_case "4-cycle" `Quick test_pruning_cycle4;
          QCheck_alcotest.to_alcotest prop_retention_exact;
          QCheck_alcotest.to_alcotest prop_floor_below_exact;
          QCheck_alcotest.to_alcotest prop_deletion_threshold_monotone;
        ] );
      ( "meta",
        [
          Alcotest.test_case "counts" `Quick test_meta_counts_match_equilibria;
          Alcotest.test_case "no closed cycles" `Quick test_meta_no_closed_cycles;
          Alcotest.test_case "reachability" `Quick test_meta_reaches_stable;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "resistances" `Quick test_stochastic_resistances;
          Alcotest.test_case "selects connected" `Quick test_stochastic_selects_connected;
          Alcotest.test_case "classes" `Quick test_stochastic_classes_dedupe;
          Alcotest.test_case "guards" `Quick test_stochastic_guards;
        ] );
    ]
