(* Benchmark & reproduction harness.

   Running this executable does two things:

   1. prints every table and figure of the paper's evaluation (the E1-E22
      reproduction suite from nf_analysis.Experiments) — the "rows and
      series the paper reports";
   2. times the computation behind each artifact with Bechamel, one
      Test.make per table/figure, plus the substrate kernels they rest on
      (BFS, canonical labeling, enumeration, stability intervals, Nash
      orientation search).

   Besides the Bechamel text report, the per-test estimates are written as
   machine-readable JSON (BENCH_<timestamp>.json, or the path given by
   NETFORM_BENCH_JSON) so the perf trajectory is tracked across PRs.

   Environment:
     NETFORM_BENCH_N     players for the exhaustive experiments (default 6)
     NETFORM_BENCH_SKIP_EXPERIMENTS=1   timing runs only
     NETFORM_BENCH_QUICK=1              minimal quota (the ci.sh smoke pass)
     NETFORM_BENCH_JSON  path for the JSON report (default BENCH_<timestamp>.json)
     NETFORM_BENCH_STORE_N  players for the store cold/warm pair (default 7; 6 in quick mode)
     NETFORM_JOBS        domain-pool width for the parallel sweeps

   The JSON report carries provenance (git commit, jobs width, OCaml
   version) so the perf trajectory stays interpretable across machines
   and checkouts. *)

open Bechamel
open Toolkit

let bench_n =
  match Sys.getenv_opt "NETFORM_BENCH_N" with
  | Some s -> (try max 4 (min 7 (int_of_string s)) with _ -> 6)
  | None -> 6

let quick = Sys.getenv_opt "NETFORM_BENCH_QUICK" = Some "1"

(* ---------------- part 1: reproduce the paper ---------------- *)

let print_experiments () =
  Printf.printf "netform reproduction suite (n=%d)\n" bench_n;
  Printf.printf "=================================\n\n%!";
  let results = Nf_analysis.Experiments.run_all ~n:bench_n () in
  print_string (Nf_analysis.Experiments.render_all results);
  let failed = List.filter (fun r -> not r.Nf_analysis.Experiments.ok) results in
  if failed = [] then Printf.printf "\nall experiment self-checks passed\n%!"
  else
    Printf.printf "\nFAILED self-checks: %s\n%!"
      (String.concat ", " (List.map (fun r -> r.Nf_analysis.Experiments.id) failed))

(* ---------------- part 2: timing ---------------- *)

module Families = Nf_named.Families
module Gallery = Nf_named.Gallery
module Rat = Nf_util.Rat
open Netform

(* per-table/figure kernels (smaller sizes: timing, not reproduction) *)
let experiment_tests =
  [
    Test.make ~name:"fig1_gallery_stable_sets" (Staged.stage (fun () ->
        List.map
          (fun g -> Bcg.stable_alpha_set g)
          [ Gallery.petersen; Gallery.octahedron; Gallery.clebsch ]));
    Test.make ~name:"fig2_fig3_sweep_n5" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Figures.sweep ~n:5 ()));
    Test.make ~name:"lemma4_exhaustive_n5" (Staged.stage (fun () ->
        Nf_analysis.Experiments.e4_lemma4 ~n:5 ()));
    Test.make ~name:"lemma5_exhaustive_n5" (Staged.stage (fun () ->
        Nf_analysis.Experiments.e5_lemma5 ~n:5 ()));
    Test.make ~name:"lemma6_cycle_windows" (Staged.stage (fun () ->
        Nf_analysis.Experiments.e6_lemma6_cycles ~max_n:12 ()));
    Test.make ~name:"prop3_moore_windows" (Staged.stage (fun () ->
        (Bcg.stable_alpha_set Gallery.petersen, Bcg.stable_alpha_set Gallery.mcgee)));
    Test.make ~name:"prop4_worst_poa_n6" (Staged.stage (fun () ->
        let annotated = Nf_analysis.Equilibria.bcg_annotated 6 in
        List.map
          (fun alpha ->
            List.filter (fun (_, set) -> Nf_util.Interval.mem alpha set) annotated)
          Nf_analysis.Sweep.paper_grid));
    Test.make ~name:"prop5_tree_nash_sets_n7" (Staged.stage (fun () ->
        List.map Ucg.nash_alpha_set (Nf_enum.Trees.unlabeled_trees 7)));
    Test.make ~name:"foot5_cycle_nash_sets" (Staged.stage (fun () ->
        List.map (fun n -> Ucg.nash_alpha_set (Families.cycle n)) [ 5; 6; 7 ]));
    Test.make ~name:"foot7_petersen_nash_set" (Staged.stage (fun () ->
        Ucg.nash_alpha_set Gallery.petersen));
    Test.make ~name:"desargues_link_convexity" (Staged.stage (fun () ->
        Convexity.link_convexity_gap Gallery.desargues));
    Test.make ~name:"eq5_bound_check_n5" (Staged.stage (fun () ->
        Nf_analysis.Experiments.e13_eq5_bound ~n:5 ()));
    Test.make ~name:"transfers_stable_set_petersen" (Staged.stage (fun () ->
        Transfers.stable_alpha_set Gallery.petersen));
    Test.make ~name:"prop2_witness_gallery" (Staged.stage (fun () ->
        List.map (fun (_, g) -> Convexity.witness_alpha g) Gallery.all));
    Test.make ~name:"meta_digraph_n4" (Staged.stage (fun () ->
        Nf_dynamics.Meta.analyze ~alpha:(Rat.of_int 2) ~n:4));
    Test.make ~name:"shape_census_n6" (Staged.stage (fun () ->
        Nf_analysis.Shapes.census
          (Nf_analysis.Equilibria.bcg_stable_graphs ~n:6 ~alpha:(Rat.of_int 2))));
    Test.make ~name:"distance_utilities_windows" (Staged.stage (fun () ->
        List.map
          (fun p -> Distance_utility.stable_alpha_set p Gallery.petersen)
          [ Distance_utility.linear; Distance_utility.quadratic;
            Distance_utility.hop_capped 2 ]));
    Test.make ~name:"bcg_scaling_annotate_n6" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.bcg_annotated 6));
    Test.make ~name:"sampled_n10_one_row" (Staged.stage (fun () ->
        let rng = Nf_util.Prng.create 7 in
        Nf_dynamics.Bcg_dynamics.sample_stable ~alpha:(Rat.of_int 4) ~rng ~n:10 ~attempts:20));
    Test.make ~name:"proper_n4_one_epsilon" (Staged.stage (fun () ->
        Proper.analyze Cost.Bcg ~alpha:2.0
          ~target:(Strategy.of_graph_bcg (Families.star 4))
          ~epsilons:[ 0.05 ] ()));
    Test.make ~name:"stochastic_stability_n4" (Staged.stage (fun () ->
        Nf_dynamics.Stochastic.analyze ~alpha:(Rat.of_int 2) ~n:4));
  ]

(* substrate kernels *)
let kernel_tests =
  let rng = Nf_util.Prng.create 99 in
  let random_graph = Nf_graph.Random_graph.connected_gnp rng 40 0.1 in
  [
    Test.make ~name:"bfs_distance_sum_n40" (Staged.stage (fun () ->
        Nf_graph.Bfs.distance_sum random_graph 0));
    Test.make ~name:"apsp_wiener_hoffman_singleton" (Staged.stage (fun () ->
        Nf_graph.Apsp.wiener Gallery.hoffman_singleton));
    Test.make ~name:"girth_mcgee" (Staged.stage (fun () -> Nf_graph.Girth.girth Gallery.mcgee));
    Test.make ~name:"canonical_form_petersen" (Staged.stage (fun () ->
        Nf_iso.Canon.canonical_form Gallery.petersen));
    Test.make ~name:"canonical_form_random_n12" (Staged.stage (fun () ->
        let g = Nf_graph.Random_graph.gnp (Nf_util.Prng.create 3) 12 0.4 in
        Nf_iso.Canon.canonical_form g));
    Test.make ~name:"enumerate_unlabeled_n6" (Staged.stage (fun () ->
        Nf_enum.Unlabeled.clear_cache ();
        Nf_enum.Unlabeled.count_all 6));
    (* the perf-trajectory record for the canonical-augmentation engine:
       cold full enumerations at n=7/8, and a streaming smoke at n=9 (the
       first 2000 classes off a warm n=8 parent level; a full n=9 pass
       belongs in ci.sh, not in a timing loop) *)
    Test.make ~name:"enumerate_all_n7_cold" (Staged.stage (fun () ->
        Nf_enum.Unlabeled.clear_cache ();
        Nf_enum.Unlabeled.count_all 7));
    Test.make ~name:"enumerate_all_n8_cold" (Staged.stage (fun () ->
        Nf_enum.Unlabeled.clear_cache ();
        Nf_enum.Unlabeled.count_all 8));
    Test.make ~name:"enumerate_stream_n9_smoke" (Staged.stage (fun () ->
        ignore (Nf_enum.Unlabeled.all_graphs 8);
        let seen = ref 0 in
        (try
           Nf_enum.Unlabeled.iter_graphs 9 (fun _ ->
               incr seen;
               if !seen >= 2000 then raise Exit)
         with Exit -> ());
        !seen));
    Test.make ~name:"stable_alpha_set_petersen" (Staged.stage (fun () ->
        Bcg.stable_alpha_set Gallery.petersen));
    (* the batched-kernel annotation trajectory: stability intervals for
       every connected class at n=7/8 (the enumeration cache warms on the
       first iteration and is never cleared here, so these rows time the
       annotation sweep itself) *)
    Test.make ~name:"bcg_annotate_n7" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.bcg_annotated 7));
    Test.make ~name:"bcg_annotate_n8" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.bcg_annotated 8));
    (* same sweep with the orbit quotient pinned on (DESIGN.md §11): kept
       as its own row so the quotiented trajectory stays tracked even if
       the process default ever changes *)
    Test.make ~name:"bcg_annotate_orbit_n8" (Staged.stage (fun () ->
        Nf_iso.Symmetry.set_quotient_enabled true;
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.bcg_annotated 8));
    Test.make ~name:"is_pairwise_stable_clebsch" (Staged.stage (fun () ->
        Bcg.is_pairwise_stable ~alpha:(Rat.of_int 2) Gallery.clebsch));
    Test.make ~name:"nash_alpha_set_c7" (Staged.stage (fun () ->
        Ucg.nash_alpha_set (Families.cycle 7)));
    (* a dense Nash set: K7 minus an edge has 2^20 orientations and the
       one-point set [1, 1]; the coverage prune decides most of the walk *)
    (let k7_minus_e = Nf_graph.Graph.remove_edge (Families.complete 7) 0 1 in
     Test.make ~name:"nash_alpha_set_k7_minus_e" (Staged.stage (fun () ->
         Ucg.nash_alpha_set k7_minus_e)));
    Test.make ~name:"ucg_best_response_star10" (Staged.stage (fun () ->
        Ucg.best_response ~alpha:(Rat.of_int 2) (Families.star 10) 1
          ~owned:Nf_util.Bitset.empty));
    Test.make ~name:"bcg_dynamics_run_n8" (Staged.stage (fun () ->
        let rng = Nf_util.Prng.create 5 in
        Nf_dynamics.Bcg_dynamics.run ~alpha:(Rat.of_int 2) ~rng
          (Nf_graph.Random_graph.connected_gnp rng 8 0.3)));
    Test.make ~name:"graph6_roundtrip_n30" (Staged.stage (fun () ->
        let g = Nf_graph.Random_graph.gnp (Nf_util.Prng.create 11) 30 0.3 in
        Nf_graph.Graph6.decode (Nf_graph.Graph6.encode g)));
    (* the multi-word BFS trajectory: full APSP distance sums over a
       4-word slab (n=256 at the mc-poa default density) — the inner-loop
       cost every large-n Monte-Carlo move evaluation rests on *)
    (let g256 =
       Nf_graph.Random_graph.gnp (Nf_util.Prng.create 256)
         256 (Nf_dynamics.Mc_poa.default_init_p 256)
     in
     Test.make ~name:"all_sums_n256" (Staged.stage (fun () ->
         Nf_graph.Kernel.with_loaded g256 Nf_graph.Kernel.all_distance_sums)));
  ]

(* registry-driven games: the extension game's full annotation sweep
   exercises the generic Equilibria cache + Game kernel path end to
   end — the trajectory row for everything that is NOT the classic
   bcg/ucg pair *)
let game_tests =
  [
    Test.make ~name:"weighted_bcg_annotate_n6" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.annotated Game_registry.weighted_bcg 6));
    (* the parameterized-family path: instance resolution, the coalition
       threshold scan (C(n,≤2) coalitions per graph) and the generic
       cache keyed by the canonical member name *)
    Test.make ~name:"coalition_k2_annotate_n6" (Staged.stage (fun () ->
        Nf_analysis.Equilibria.clear_cache ();
        Nf_analysis.Equilibria.annotated (Coalition.make ~k:2) 6));
  ]

(* ---------------- store cold/warm trajectory ---------------- *)

(* The nf_store acceptance record: a one-shot timed cold build (the full
   annotation sweep into a fresh store) against a warm figure
   regeneration from that store (index load + Query.figure_points over
   the paper grid).  One-shot wall-clock rather than a Bechamel staged
   loop because the cold build at n=7 runs for ~10s, far past any
   sensible quota; a single run is plenty to witness the cold/warm
   ratio. *)
let store_n =
  match Sys.getenv_opt "NETFORM_BENCH_STORE_N" with
  | Some s -> (try max 4 (min 7 (int_of_string s)) with _ -> if quick then 6 else 7)
  | None -> if quick then 6 else 7

let store_rows () =
  let path = Filename.temp_file "netform_bench_store" ".nfs" in
  let path8 = Filename.temp_file "netform_bench_store8" ".nfs" in
  let shard_dir = Filename.temp_file "netform_bench_shards" "" in
  Sys.remove shard_dir;
  Sys.mkdir shard_dir 0o700;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".part"; path8; path8 ^ ".part" ];
      if Sys.file_exists shard_dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat shard_dir name))
          (Sys.readdir shard_dir);
        Sys.rmdir shard_dir
      end)
    (fun () ->
      let outcome, cold =
        time (fun () -> Nf_store.Build.build ~path ~n:store_n ~force:true ())
      in
      let points, warm =
        time (fun () ->
            let index = Nf_store.Index.load ~path in
            Nf_store.Query.figure_points index ())
      in
      assert (points <> []);
      Printf.printf
        "\nstore trajectory: n=%d, %d classes; cold build %.2fs, warm figures %.4fs (%.0fx)\n%!"
        store_n outcome.Nf_store.Build.records cold warm (cold /. warm);
      (* the n=8 trajectory row the batched kernel unlocked: a full cold
         build (BCG intervals only — the default with_ucg cutoff is n<=7)
         over all 11117 connected classes, cheap enough to run even in the
         quick ci smoke *)
      let outcome8, cold8 =
        time (fun () -> Nf_store.Build.build ~path:path8 ~n:8 ~force:true ())
      in
      Printf.printf "store n=8 smoke: %d classes; cold build %.2fs\n%!"
        outcome8.Nf_store.Build.records cold8;
      (* the sharded-build acceptance row: a k=4 BCG-only n=7 build run
         shard by shard in this one process, then merged — timed end to
         end against a single-process build of the same parameters, with
         the byte-identity acceptance asserted on every bench run *)
      let single = Filename.concat shard_dir "single.nfs" in
      let merged = Filename.concat shard_dir "merged.nfs" in
      let _, single_t =
        time (fun () -> Nf_store.Build.build ~game:"bcg" ~path:single ~n:7 ~force:true ())
      in
      let read_all p = In_channel.with_open_bin p In_channel.input_all in
      let k = 4 in
      let _, sharded_t =
        time (fun () ->
            for i = 1 to k do
              ignore
                (Nf_store.Build.build ~game:"bcg" ~shard:(i, k)
                   ~path:(Filename.concat shard_dir (Printf.sprintf "shard%d.nfs" i))
                   ~n:7 ~force:true ())
            done;
            ignore (Nf_store.Merge.merge_dir ~dir:shard_dir ~out:merged ()))
      in
      assert (read_all single = read_all merged);
      Printf.printf
        "store sharded n=7 (bcg): single build %.2fs, %d shards + merge %.2fs, bytes identical\n%!"
        single_t k sharded_t;
      (* the nf_serve acceptance rows, off the stores already built above.

         warm_query_n7: a live daemon on a unix socket over the n=7
         BCG-only store, timed per stable-at round trip (client JSON line
         -> pool dispatch -> α-index stab -> response line) with the
         index already warm.  interval_index_n8: the α-interval index
         over all 11117 n=8 classes — mmap streaming pass + build + 1000
         stabbing queries, one-shot end to end. *)
      let sock = Filename.temp_file "netform_bench_serve" ".sock" in
      Sys.remove sock;
      let server =
        Domain.spawn (fun () ->
            Nf_serve.Server.serve ~report:ignore
              ~addr:(Nf_serve.Server.Unix_socket sock) ~path:single ())
      in
      let rec await tries =
        if tries = 0 then failwith "bench: serve socket never appeared"
        else if not (Sys.file_exists sock) then begin
          Unix.sleepf 0.05;
          await (tries - 1)
        end
      in
      await 200;
      let client = Nf_serve.Client.connect sock in
      let alphas = Array.of_list Nf_analysis.Sweep.paper_grid in
      let round_trip i =
        let alpha = alphas.(i mod Array.length alphas) in
        let resp =
          Nf_serve.Client.request client
            (Nf_serve.Protocol.Stable_at { game = None; alpha })
        in
        assert (Nf_serve.Protocol.response_ok resp)
      in
      (* first pass builds the daemon's α-index; then time warm trips *)
      round_trip 0;
      let reqs = 200 in
      let (), served_t = time (fun () -> for i = 1 to reqs do round_trip i done) in
      ignore (Nf_serve.Client.request client Nf_serve.Protocol.Shutdown);
      Nf_serve.Client.close client;
      Domain.join server;
      let warm_query = served_t /. float_of_int reqs in
      Printf.printf "serve n=7 (bcg): %d warm stable-at round trips, %.0f ns each\n%!" reqs
        (warm_query *. 1e9);
      let (), index8_t =
        time (fun () ->
            let m = Nf_serve.Mmap_reader.open_store ~path:path8 () in
            let count = Nf_serve.Mmap_reader.length m in
            let regions = Array.make count [] in
            Nf_serve.Mmap_reader.iter m (fun i r -> regions.(i) <- [ r.Nf_store.Layout.bcg ]);
            let idx = Nf_serve.Alpha_index.build ~count ~pieces:(Array.get regions) in
            let eps = Nf_serve.Alpha_index.endpoints idx in
            assert (Array.length eps > 0);
            let hits = ref 0 in
            for i = 0 to 999 do
              let alpha = eps.(i mod Array.length eps) in
              hits := !hits + List.length (Nf_serve.Alpha_index.stable_at idx ~alpha)
            done;
            assert (!hits > 0);
            Nf_serve.Mmap_reader.close m)
      in
      Printf.printf
        "serve n=8: mmap pass + alpha-index build + 1000 endpoint stabs in %.3fs\n%!" index8_t;
      [ (Printf.sprintf "netform/store/cold_build_n%d" store_n, Some (cold *. 1e9));
        (Printf.sprintf "netform/store/warm_figures_n%d" store_n, Some (warm *. 1e9));
        ("netform/store/cold_build_n8_smoke", Some (cold8 *. 1e9));
        ("netform/store/sharded_build_n7", Some (sharded_t *. 1e9));
        ("netform/serve/warm_query_n7", Some (warm_query *. 1e9));
        ("netform/serve/interval_index_n8", Some (index8_t *. 1e9)) ])

(* ---------------- large-n dynamics trajectory ---------------- *)

(* The multi-word kernel acceptance row: one seeded Monte-Carlo trial at
   n=128 (a 3-word slab) run end to end — G(n,p) init, the randomized
   better-response walk to pairwise stability, exact social cost of the
   converged state.  One-shot wall clock for the same reason as the store
   rows: a single trial runs for ~0.5s, far past any sensible Bechamel
   quota. *)
let dynamics_rows () =
  let t0 = Unix.gettimeofday () in
  let trials = Nf_dynamics.Mc_poa.run ~n:128 ~alpha:(Rat.of_int 2) ~trials:1 ~seed:1 () in
  let dt = Unix.gettimeofday () -. t0 in
  let t = List.hd trials in
  assert t.Nf_dynamics.Mc_poa.converged;
  Printf.printf "\nmc-poa n=128 smoke: %d evals, %d moves, converged in %.2fs\n%!"
    t.Nf_dynamics.Mc_poa.evals t.Nf_dynamics.Mc_poa.moves dt;
  [ ("netform/dynamics/mc_poa_n128_smoke", Some (dt *. 1e9)) ]

(* ---------------- machine-readable report ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_path () =
  match Sys.getenv_opt "NETFORM_BENCH_JSON" with
  | Some path -> path
  | None ->
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "BENCH_%04d%02d%02d_%02d%02d%02d.json" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> None
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None)

let write_json path rows =
  match open_out path with
  | exception Sys_error msg ->
    (* an unwritable report path must not discard the timings just printed *)
    Printf.eprintf "warning: could not write JSON report: %s\n%!" msg
  | oc ->
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"netform-bench/1\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"bench_n\": %d,\n" bench_n;
  Printf.fprintf oc "  \"jobs\": %d,\n" (Nf_util.Pool.default_jobs ());
  Printf.fprintf oc "  \"git_commit\": %s,\n"
    (match git_commit () with
    | Some h -> Printf.sprintf "\"%s\"" (json_escape h)
    | None -> "null");
  Printf.fprintf oc "  \"ocaml_version\": \"%s\",\n" (json_escape Sys.ocaml_version);
  Printf.fprintf oc "  \"results\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun k (name, estimate) ->
      Printf.fprintf oc "    { \"name\": \"%s\", \"ns_per_run\": %s }%s\n" (json_escape name)
        (match estimate with
        | Some e -> Printf.sprintf "%.1f" e
        | None -> "null")
        (if k < last then "," else ""))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  (* NETFORM_BENCH_QUICK=1: the ci.sh smoke pass — each staged kernel still
     runs (so the JSON perf record has every row) but with a minimal quota *)
  let cfg =
    if quick then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped =
    Test.make_grouped ~name:"netform"
      [
        Test.make_grouped ~name:"experiments" experiment_tests;
        Test.make_grouped ~name:"kernels" kernel_tests;
        Test.make_grouped ~name:"games" game_tests;
      ]
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\nbenchmarks (monotonic clock, ns/run)\n";
  Printf.printf "------------------------------------\n";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let rows =
    List.map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ estimate ] -> (name, Some estimate)
        | Some _ | None -> (name, None))
      rows
  in
  let rows = rows @ store_rows () @ dynamics_rows () in
  List.iter
    (fun (name, estimate) ->
      match estimate with
      | Some estimate -> Printf.printf "%-55s %14.0f ns/run\n" name estimate
      | None -> Printf.printf "%-55s (no estimate)\n" name)
    rows;
  write_json (json_path ()) rows

let () =
  if Sys.getenv_opt "NETFORM_BENCH_SKIP_EXPERIMENTS" = None then print_experiments ();
  run_benchmarks ()
