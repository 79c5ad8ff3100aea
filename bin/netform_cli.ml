(* netform: command-line front end for the bilateral/unilateral connection
   game library.

   Subcommands:
     stability    exact BCG stable window / UCG Nash set for a graph
     named        list the built-in graph gallery with invariants
     games        list the registered game instances (--game values)
     enumerate    equilibrium counts over all connected topologies
     sweep        Figures 2 & 3, or any one game's sweep via --game
     dynamics     run improving-path / best-response dynamics (--game)
     mc-poa       Monte-Carlo PoA estimate at large n (seeded, CSV)
     annotate     export the equilibrium atlas (graph6 + exact regions)
     experiments  run the full E1-E22 reproduction suite
     store        persistent equilibrium-atlas store (build | resume |
                  query | verify | export | merge | shards), classic or
                  --game stores; build accepts --shard I/K and merge
                  reassembles the volumes byte-identically

   Every game-generic subcommand resolves --game through
   Netform.Game_registry, so a newly registered game is reachable from
   all of them with no CLI changes. *)

open Cmdliner
module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Serve = Nf_serve
open Netform

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ())

(* every subcommand accepts --jobs; it replaces the default domain pool
   before any sweep starts, overriding NETFORM_JOBS.  --jobs 1 is the
   exact sequential path: no domains are spawned and all library entry
   points degrade to plain left-to-right code. *)
let jobs_opt =
  let pos_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg "JOBS must be a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ]
        ~docv:"N"
        ~doc:
          "Width of the domain pool used for parallel sweeps (default: the \
           $(b,NETFORM_JOBS) environment variable, else the machine's core count). \
           $(b,--jobs 1) forces the exact sequential path.")

let setup jobs =
  setup_logs ();
  Option.iter Nf_util.Pool.set_default_jobs jobs

(* sweep-shaped subcommands accept --no-orbit-quotient: it forces every
   annotator onto the plain per-pair loops, exactly as if every graph were
   rigid.  Same effect as NETFORM_NO_ORBIT_QUOTIENT=1; useful for A/B
   checks (the outputs must be byte-identical) and timing comparisons. *)
let no_orbit_quotient_opt =
  Arg.(
    value & flag
    & info [ "no-orbit-quotient" ]
        ~doc:
          "Disable the automorphism-orbit quotient: evaluate every edge toggle instead of \
           one representative per orbit.  Results are identical either way; this exists \
           for verification and benchmarking.  Equivalent to setting \
           $(b,NETFORM_NO_ORBIT_QUOTIENT=1).")

let setup_quotient no_quotient =
  if no_quotient then Nf_iso.Symmetry.set_quotient_enabled false

(* ---------------- shared argument parsing ---------------- *)

let named_graphs = Nf_analysis.Parse.named_graphs

let graph_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Nf_analysis.Parse.graph_of_spec s) in
  let print ppf g = Format.pp_print_string ppf (Nf_graph.Graph6.encode g) in
  Arg.conv (parse, print)

let alpha_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Nf_analysis.Parse.alpha_of_string s) in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Rat.to_string a))

let graph_arg =
  Arg.(
    required
    & pos 0 (some graph_conv) None
    & info [] ~docv:"GRAPH" ~doc:"A gallery name (see $(b,netform named)) or a graph6 string.")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of players.")

(* ---------------- stability ---------------- *)

let stability jobs graph =
  setup jobs;
  Printf.printf "graph: %s\n" (Nf_graph.Pp.summary graph);
  Printf.printf "BCG pairwise-stable alpha set: %s\n"
    (Nf_util.Interval.to_string (Bcg.stable_alpha_set graph));
  Printf.printf "  paper interval (alpha_min, alpha_max]: %s\n"
    (Nf_util.Interval.to_string (Bcg.stability_interval graph));
  Printf.printf "  link convex: %b\n" (Convexity.is_link_convex graph);
  let n = Graph.order graph in
  if n <= 12 && Graph.size graph <= 20 then
    Printf.printf "UCG Nash alpha set: %s\n"
      (Nf_util.Interval.Union.to_string (Ucg.nash_alpha_set graph))
  else Printf.printf "UCG Nash alpha set: (skipped: graph too large for orientation search)\n";
  0

let stability_cmd =
  Cmd.v
    (Cmd.info "stability" ~doc:"Exact stability/Nash link-cost regions of a graph")
    Term.(const stability $ jobs_opt $ graph_arg)

(* ---------------- named ---------------- *)

let named () =
  setup_logs ();
  List.iter
    (fun (name, g) -> Printf.printf "%-18s %s\n" name (Nf_graph.Pp.summary g))
    named_graphs;
  0

let named_cmd =
  Cmd.v (Cmd.info "named" ~doc:"List built-in graphs") Term.(const named $ const ())

(* ---------------- games ---------------- *)

let games names_only =
  setup_logs ();
  if names_only then
    (* one concrete instance per line — including an example member of
       each family without a default — so scripted loops cover every
       registered family *)
    List.iter
      (fun packed -> print_endline (Game.name packed))
      (Game_registry.ci_instances ())
  else begin
    List.iter
      (fun (Game.Any (module G) as packed) ->
        let region =
          match G.region_kind with
          | Game.Region.Interval -> "interval"
          | Game.Region.Union -> "union"
        in
        Printf.printf "%-14s tag=%-2d region=%-8s dynamics=%-5b %s\n" G.name G.schema_tag
          region (Game.has_moves packed) G.describe)
      (Game_registry.all ());
    match Game_registry.families () with
    | [] -> ()
    | fams ->
      Printf.printf "\nparameterized families (any member is a --game value):\n";
      List.iter
        (fun f ->
          Printf.printf "%-22s tag=%-2d e.g. %-16s %s\n" f.Game_registry.grammar
            f.Game_registry.schema_tag f.Game_registry.example f.Game_registry.describe)
        fams
  end;
  0

let games_cmd =
  let names_only =
    Arg.(value & flag & info [ "names" ] ~doc:"Print bare names only (for scripting).")
  in
  Cmd.v
    (Cmd.info "games" ~doc:"List the registered game instances usable as --game values")
    Term.(const games $ names_only)

let game_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "game" ] ~docv:"GAME"
        ~doc:"Run for this registered game only (see $(b,netform games)).")

(* ---------------- enumerate ---------------- *)

let enumerate jobs n alpha =
  setup jobs;
  let bcg = Nf_analysis.Equilibria.bcg_stable_graphs ~n ~alpha in
  Printf.printf "connected isomorphism classes on %d vertices: %d\n" n
    (Nf_enum.Unlabeled.count_connected n);
  Printf.printf "BCG pairwise stable at alpha=%s: %d\n" (Rat.to_string alpha)
    (List.length bcg);
  let bcg_summary = Poa.summarize Cost.Bcg ~alpha:(Rat.to_float alpha) bcg in
  Format.printf "  %a@." Poa.pp_summary bcg_summary;
  if n <= 7 then begin
    let ucg = Nf_analysis.Equilibria.ucg_nash_graphs ~n ~alpha in
    Printf.printf "UCG Nash graphs at alpha=%s: %d\n" (Rat.to_string alpha) (List.length ucg);
    let ucg_summary = Poa.summarize Cost.Ucg ~alpha:(Rat.to_float alpha) ucg in
    Format.printf "  %a@." Poa.pp_summary ucg_summary
  end
  else Printf.printf "UCG: skipped for n > 7 (orientation search cost)\n";
  0

let alpha_opt =
  Arg.(
    value
    & opt alpha_conv (Rat.of_int 2)
    & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc:"Link cost (integer, dyadic or p/q).")

let enumerate_cmd =
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Count equilibrium topologies exhaustively")
    Term.(const enumerate $ jobs_opt $ n_arg 6 $ alpha_opt)

(* ---------------- sweep ---------------- *)

let write_csv ~path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* the paper's Figure 2/3 pair, read from a classic BCG+UCG store *)
let classic_figure_points service =
  match Serve.Service.figures service () with
  | Serve.Service.Classic points -> points
  | Serve.Service.Single _ ->
    invalid_arg
      (Printf.sprintf "store carries %S annotations only; Figures 2/3 need a BCG+UCG store"
         (Serve.Service.game service))

(* one game's sweep (--game): the game's own alpha convention and cost
   model, from a fresh annotation or served from a store *)
let sweep_one_game ~name ~n ~csv ~store =
  let packed = Game_registry.find_exn name in
  let points =
    match store with
    | Some path ->
      let service = Serve.Service.create ~path () in
      Printf.printf "(sweep served from %s: game=%s, n=%d, %d classes)\n\n" path
        (Serve.Service.game service) (Serve.Service.n service) (Serve.Service.length service);
      Nf_analysis.Figures.sweep_game_via packed
        ~stable:(fun ~alpha -> Serve.Service.stable_graphs service ~game:name ~alpha)
        ()
    | None -> Nf_analysis.Figures.sweep_game packed ~n ()
  in
  print_string (Nf_analysis.Figures.game_table points);
  print_newline ();
  print_string (Nf_analysis.Figures.game_plot points);
  Option.iter (fun path -> write_csv ~path (Nf_analysis.Figures.game_csv points)) csv

let sweep jobs no_quotient n game csv store =
  setup jobs;
  setup_quotient no_quotient;
  match game with
  | Some name ->
    sweep_one_game ~name ~n ~csv ~store;
    0
  | None ->
    let points =
      match store with
      | Some path ->
        (* warm path: the annotation is read from the atlas store, never
           recomputed; only the PoA summaries run here *)
        let service = Serve.Service.create ~path () in
        Printf.printf "(figures served from %s: n=%d, %d classes)\n\n" path
          (Serve.Service.n service) (Serve.Service.length service);
        classic_figure_points service
      | None -> Nf_analysis.Figures.sweep ~n ()
    in
    print_string (Nf_analysis.Figures.figure2_table points);
    print_newline ();
    print_string (Nf_analysis.Figures.figure2_plot points);
    print_newline ();
    print_string (Nf_analysis.Figures.figure3_table points);
    print_newline ();
    print_string (Nf_analysis.Figures.figure3_plot points);
    Option.iter (fun path -> write_csv ~path (Nf_analysis.Figures.to_csv points)) csv;
    0

let csv_opt =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write CSV data.")

let store_src_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"STORE"
        ~doc:
          "Serve the figure curves from an equilibrium-atlas store (see $(b,netform store \
           build)) instead of recomputing the annotation; $(b,-n) is ignored.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Reproduce Figures 2 and 3 (average PoA / links vs link cost), or sweep a single \
          registered game with $(b,--game)")
    Term.(
      const sweep $ jobs_opt $ no_orbit_quotient_opt $ n_arg 6 $ game_opt $ csv_opt
      $ store_src_opt)

(* ---------------- dynamics ---------------- *)

let dynamics jobs game_str n alpha seed steps =
  setup jobs;
  let rng = Nf_util.Prng.create seed in
  match String.lowercase_ascii game_str with
  | "ucg" ->
    (* the UCG has no graph-local moves: its dynamics are best-response
       over full strategy profiles, a separate loop *)
    let outcome = Nf_dynamics.Ucg_dynamics.run_random ~alpha ~rng (Nf_dynamics.Ucg_dynamics.empty n) in
    Printf.printf "from the empty profile, %d best-response rounds (%s):\n"
      outcome.Nf_dynamics.Ucg_dynamics.rounds
      (if outcome.Nf_dynamics.Ucg_dynamics.converged then "Nash" else "cycling; cap hit");
    Printf.printf "final: %s\n"
      (Graph.to_string outcome.Nf_dynamics.Ucg_dynamics.final.Nf_dynamics.Ucg_dynamics.graph);
    0
  | name -> (
    match Game_registry.find name with
    | None ->
      Printf.eprintf "unknown game %S: one of %s\n" name
        (String.concat ", " (Game_registry.names ()));
      1
    | Some packed when not (Game.has_moves packed) ->
      Printf.eprintf "game %S has no improving-path dynamics\n" name;
      1
    | Some packed ->
      let start =
        Nf_graph.Random_graph.connected_gnp rng n
          (if n > 62 then Nf_dynamics.Mc_poa.default_init_p n else 0.3)
      in
      (* past the one-word order, edge lists and per-move traces flood the
         terminal: print graphs as order/size summaries instead *)
      let show g =
        if n > 62 then Printf.sprintf "graph(n=%d, m=%d)" (Graph.order g) (Graph.size g)
        else Graph.to_string g
      in
      Printf.printf "start: %s\n" (show start);
      let outcome = Nf_dynamics.Game_dynamics.run packed ~alpha ~rng ~max_steps:steps start in
      if n <= 62 then
        List.iter
          (fun move ->
            match move with
            | Game.Add (i, j) -> Printf.printf "  + link %d-%d\n" i j
            | Game.Delete (i, j) -> Printf.printf "  - link %d-%d (severed by %d)\n" i j i)
          outcome.Nf_dynamics.Game_dynamics.trace;
      Printf.printf "final (%s after %d moves): %s\n"
        (if outcome.Nf_dynamics.Game_dynamics.converged then "stable" else "step cap hit")
        outcome.Nf_dynamics.Game_dynamics.steps
        (show outcome.Nf_dynamics.Game_dynamics.final);
      0)

let dynamics_cmd =
  let game =
    Arg.(
      value
      & pos 0 string "bcg"
      & info [] ~docv:"GAME"
          ~doc:"A registered game with improving-path dynamics (see $(b,netform games)), or ucg.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let steps = Arg.(value & opt int 10000 & info [ "max-steps" ] ~docv:"K") in
  Cmd.v
    (Cmd.info "dynamics"
       ~doc:"Run improving-path dynamics for any registered game, or UCG best response")
    Term.(const dynamics $ jobs_opt $ game $ n_arg 8 $ alpha_opt $ seed $ steps)

(* ---------------- mc-poa ---------------- *)

let mc_poa jobs game n alpha trials seed factor init_p csv =
  setup jobs;
  if n < 2 then begin
    Printf.eprintf "mc-poa: need -n >= 2\n";
    1
  end
  else begin
    match
      Nf_dynamics.Mc_poa.run ?game ?init_p ~max_evals_factor:factor ~n ~alpha ~trials ~seed
        ()
    with
    | exception Invalid_argument msg ->
      Printf.eprintf "mc-poa: %s\n" msg;
      1
    | results ->
      (* the csv's opt_cost denominator follows the game the walk ran *)
      let csv_game =
        match game with
        | None -> None
        | Some name ->
          let packed = Game_registry.find_exn name in
          if Game.name packed = "bcg" then None else Some packed
      in
      print_string
        (Nf_dynamics.Mc_poa.summary_to_string
           (Nf_dynamics.Mc_poa.summarize ~n ~alpha results));
      (match csv with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Nf_dynamics.Mc_poa.to_csv ?game:csv_game ~n ~alpha results);
        close_out oc;
        Printf.printf "wrote %s\n" path);
      0
  end

let mc_poa_cmd =
  let trials =
    Arg.(value & opt int 4 & info [ "trials" ] ~docv:"T" ~doc:"Number of seeded trials.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let factor =
    Arg.(
      value & opt int 60
      & info [ "max-evals-factor" ] ~docv:"F"
          ~doc:
            "Per-trial evaluation budget, as a multiple of C(n,2) pair slots; a trial \
             still churning past it is reported unconverged.")
  in
  let init_p =
    Arg.(
      value
      & opt (some float) None
      & info [ "init-p" ] ~docv:"P"
          ~doc:
            "Edge density of the connected G(n,p) initial graphs (default \
             (ln n + 1)/n, just above the connectivity threshold).")
  in
  Cmd.v
    (Cmd.info "mc-poa"
       ~doc:
         "Monte-Carlo price-of-anarchy estimate for the BCG at large n: seeded random \
          starts, randomized better-response walks to pairwise stability, exact-rational \
          social cost against the star/clique optimum, reported next to the paper's \
          O(min(sqrt(alpha), n/sqrt(alpha))) bound.  Fixed seed implies byte-identical \
          CSV output whatever $(b,--jobs) is.  With $(b,--game), trials walk any \
          registered game exposing improving moves (e.g. coalition:k=2, adversary) and \
          the ratio divides by that game's star/clique baseline.")
    Term.(
      const mc_poa $ jobs_opt $ game_opt $ n_arg 128 $ alpha_opt $ trials $ seed $ factor
      $ init_p $ csv_opt)

(* ---------------- annotate ---------------- *)

(* the single-game atlas CSV (--game): same graph6/n/m prefix as the
   classic Dataset CSV, one region column named after the game *)
let game_atlas_csv ~name entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph6,n,m,%s_stable\n" name);
  List.iter
    (fun (g, region) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s\n" (Nf_graph.Graph6.encode g) (Graph.order g)
           (Graph.size g) region))
    entries;
  Buffer.contents buf

let annotate jobs no_quotient n game out with_ucg =
  setup jobs;
  setup_quotient no_quotient;
  match game with
  | Some name ->
    if Option.is_some with_ucg then
      invalid_arg "annotate: pass either --game or --ucg, not both";
    let packed = Game_registry.find_exn name in
    Logs.info (fun m ->
        m "annotating %d connected classes on %d vertices (game=%s)"
          (Nf_enum.Unlabeled.count_connected n) n name);
    let csv = game_atlas_csv ~name (Nf_analysis.Equilibria.annotated_regions packed n) in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Printf.printf "wrote %s atlas for n=%d to %s\n" name n path
    | None -> print_string csv);
    0
  | None ->
    let with_ucg = Option.value ~default:(n <= 7) with_ucg in
    Logs.info (fun m -> m "annotating %d connected classes on %d vertices (ucg=%b)"
                  (Nf_enum.Unlabeled.count_connected n) n with_ucg);
    let entries = Nf_analysis.Dataset.build ~with_ucg n in
    (match out with
    | Some path ->
      Nf_analysis.Dataset.save ~path entries;
      Printf.printf "wrote %d annotated classes to %s\n" (List.length entries) path
    | None -> print_string (Nf_analysis.Dataset.to_csv entries));
    0

let annotate_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV.")
  in
  let with_ucg =
    Arg.(
      value
      & opt (some bool) None
      & info [ "ucg" ] ~docv:"BOOL" ~doc:"Include UCG Nash sets (default: n <= 7).")
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Export the equilibrium atlas: every connected class with its exact regions")
    Term.(
      const annotate $ jobs_opt $ no_orbit_quotient_opt $ n_arg 6 $ game_opt $ out
      $ with_ucg)

(* ---------------- experiments ---------------- *)

let same_experiment_id a b = String.lowercase_ascii a = String.lowercase_ascii b

let run_experiments n game only out store =
  let results =
    match game with
    | Some name -> [ Nf_analysis.Experiments.game_sweep ~game:name ~n () ]
    | None -> Nf_analysis.Experiments.run_all ~n ()
  in
  let results =
    match only with
    | None -> results
    | Some id ->
      List.filter (fun r -> same_experiment_id r.Nf_analysis.Experiments.id id) results
  in
  print_string (Nf_analysis.Experiments.render_all results);
  (match out with
  | Some dir ->
    let points =
      match store with
      | Some path -> classic_figure_points (Serve.Service.create ~path ())
      | None -> Nf_analysis.Figures.sweep ~n ()
    in
    let written = Nf_analysis.Report.write_all ~dir ~results ~points () in
    Printf.printf "\nwrote %d artifacts under %s\n" (List.length written) dir
  | None -> ());
  if List.for_all (fun r -> r.Nf_analysis.Experiments.ok) results then 0 else 1

(* --only is checked against the known ids before anything runs, so an id
   that matches nothing fails at once instead of running the whole suite
   (seconds to minutes) to print nothing *)
let experiments jobs n game only out store =
  setup jobs;
  let known =
    match game with
    | Some name -> [ "G:" ^ name ]
    | None -> Nf_analysis.Experiments.ids
  in
  match only with
  | Some id when not (List.exists (same_experiment_id id) known) ->
    Printf.eprintf "error: unknown experiment id %S (known: %s)\n" id
      (String.concat ", " known);
    2
  | _ -> run_experiments n game only out store

let only_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"ID"
        ~doc:
          "Print a single experiment (e.g. E6; $(b,G:)$(i,GAME) with $(b,--game)).  An \
           unknown id exits 2 before anything runs.")

let out_dir_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Write per-experiment artifacts into a directory.")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run the full paper-reproduction suite (E1-E23), or one game's sweep experiment \
          with $(b,--game)")
    Term.(
      const experiments $ jobs_opt $ n_arg 6 $ game_opt $ only_opt $ out_dir_opt
      $ store_src_opt)

(* ---------------- store ---------------- *)

let store_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STORE" ~doc:"Path of the equilibrium-atlas store file.")

let report_line line = Printf.eprintf "%s\n%!" line

let shard_string = function
  | None -> ""
  | Some (i, k) -> Printf.sprintf " shard=%d/%d" i k

let print_outcome verb (o : Nf_store.Build.outcome) =
  Printf.printf "%s %s: n=%d game=%s ucg=%b%s, %d classes in %d chunks (%d resumed) in %.2fs\n"
    verb o.Nf_store.Build.path o.Nf_store.Build.n o.Nf_store.Build.game
    o.Nf_store.Build.with_ucg (shard_string o.Nf_store.Build.shard) o.Nf_store.Build.records
    o.Nf_store.Build.chunks o.Nf_store.Build.resumed_records o.Nf_store.Build.seconds

(* --shard I/K: which slice of the k-way split this process builds *)
let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ i; k ] -> (
      match (int_of_string_opt i, int_of_string_opt k) with
      | Some i, Some k when 1 <= i && i <= k && k <= Nf_store.Layout.max_shards -> Ok (i, k)
      | Some _, Some _ ->
        Error
          (`Msg
             (Printf.sprintf "SHARD must satisfy 1 <= I <= K <= %d" Nf_store.Layout.max_shards))
      | _ -> Error (`Msg "SHARD must be I/K (e.g. 2/4)"))
    | _ -> Error (`Msg "SHARD must be I/K (e.g. 2/4)")
  in
  Arg.conv (parse, fun ppf (i, k) -> Format.fprintf ppf "%d/%d" i k)

let store_build jobs no_quotient n out game with_ucg shard chunk force quiet =
  setup jobs;
  setup_quotient no_quotient;
  let report = if quiet then ignore else report_line in
  match Nf_store.Build.build ?game ?with_ucg ?shard ~chunk ~force ~report ~path:out ~n () with
  | outcome ->
    print_outcome "built" outcome;
    0
  | exception Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let store_build_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"STORE" ~doc:"Store file to create.")
  in
  let with_ucg =
    Arg.(
      value
      & opt (some bool) None
      & info [ "ucg" ] ~docv:"BOOL" ~doc:"Include UCG Nash sets (default: n <= 7).")
  in
  let chunk =
    Arg.(
      value
      & opt int 512
      & info [ "chunk" ] ~docv:"K"
          ~doc:"Classes per chunk: the append/recovery granularity and the pool fan-out unit.")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/K"
          ~doc:
            "Build only shard $(i,I) of a $(i,K)-way split of the enumeration stream.  The \
             $(i,K) volumes (same $(b,-n), $(b,--game) and $(b,--chunk) throughout) can be \
             built by independent processes or machines; $(b,netform store merge) reassembles \
             them into a store byte-identical to a single-process build.")
  in
  let force = Arg.(value & flag & info [ "force" ] ~doc:"Overwrite an existing store.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-chunk progress lines.") in
  Cmd.v
    (Cmd.info "build" ~doc:"Annotate every connected class on N vertices into a store")
    Term.(
      const store_build $ jobs_opt $ no_orbit_quotient_opt $ n_arg 6 $ out $ game_opt
      $ with_ucg $ shard $ chunk $ force $ quiet)

let store_resume jobs out quiet =
  setup jobs;
  let report = if quiet then ignore else report_line in
  match Nf_store.Build.resume ~report ~path:out () with
  | outcome ->
    print_outcome "resumed" outcome;
    0
  | exception Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let store_resume_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"STORE"
          ~doc:"Store file whose interrupted build ($(i,STORE).part) should be continued.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-chunk progress lines.") in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Continue a build killed mid-sweep from the last complete chunk (byte-identical)")
    Term.(const store_resume $ jobs_opt $ out $ quiet)

let store_verify path =
  setup_logs ();
  match Nf_store.Reader.verify ~path with
  | Ok scan ->
    let h = scan.Nf_store.Reader.header in
    Printf.printf
      "%s: ok (schema %d, n=%d, game=%s%s, %d classes in %d chunks of %d, all CRCs valid)\n"
      path Nf_store.Layout.schema_version h.Nf_store.Layout.n
      (Nf_store.Build.game_of_content h.Nf_store.Layout.content)
      (shard_string h.Nf_store.Layout.shard)
      scan.Nf_store.Reader.records scan.Nf_store.Reader.chunks h.Nf_store.Layout.chunk_size;
    0
  | Error msg ->
    Printf.eprintf "%s: CORRUPT: %s\n" path msg;
    1

let store_verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Strict integrity check: header/chunk/footer CRCs, record parses, totals")
    Term.(const store_verify $ store_path_arg)

let store_query jobs path alpha game figures csv list_graphs =
  setup jobs;
  let service = Serve.Service.create ~path () in
  Printf.printf "%s: n=%d, %d annotated classes, game=%s\n" path (Serve.Service.n service)
    (Serve.Service.length service) (Serve.Service.game service);
  (match alpha with
  | Some alpha ->
    let name = String.lowercase_ascii game in
    let (Game.Any (module G)) = Game_registry.find_exn name in
    let graphs = Serve.Service.stable_graphs service ~game:name ~alpha in
    Printf.printf "%s equilibria at alpha=%s: %d\n" (String.uppercase_ascii name)
      (Rat.to_string alpha) (List.length graphs);
    Format.printf "  %a@." Poa.pp_summary
      (Poa.summarize G.cost_model ~alpha:(Rat.to_float alpha) graphs);
    if list_graphs then
      List.iter (fun g -> print_endline (Nf_graph.Graph6.encode g)) graphs
  | None -> ());
  if figures then begin
    (* classic dual stores serve the paper's Figure 2/3 pair; a
       single-game store serves its own game's curves *)
    match Serve.Service.figures service () with
    | Serve.Service.Classic points ->
      print_newline ();
      print_string (Nf_analysis.Figures.figure2_table points);
      print_newline ();
      print_string (Nf_analysis.Figures.figure2_plot points);
      print_newline ();
      print_string (Nf_analysis.Figures.figure3_table points);
      print_newline ();
      print_string (Nf_analysis.Figures.figure3_plot points);
      Option.iter (fun file -> write_csv ~path:file (Nf_analysis.Figures.to_csv points)) csv
    | Serve.Service.Single points ->
      print_newline ();
      print_string (Nf_analysis.Figures.game_table points);
      print_newline ();
      print_string (Nf_analysis.Figures.game_plot points);
      Option.iter (fun file -> write_csv ~path:file (Nf_analysis.Figures.game_csv points)) csv
  end;
  0

let store_query_cmd =
  let alpha =
    Arg.(
      value
      & opt (some alpha_conv) None
      & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc:"Report the equilibrium set at this link cost.")
  in
  let game =
    Arg.(
      value
      & opt string "bcg"
      & info [ "game" ] ~docv:"GAME"
          ~doc:"The registered game to query (must match the store's annotations).")
  in
  let figures =
    Arg.(value & flag & info [ "figures" ] ~doc:"Regenerate the Figure 2/3 series from the store.")
  in
  let list_graphs =
    Arg.(value & flag & info [ "list" ] ~doc:"Print the graph6 of each equilibrium class.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Serve alpha-queries and figure curves from a store, with no recomputation")
    Term.(
      const store_query $ jobs_opt $ store_path_arg $ alpha $ game $ figures $ csv_opt
      $ list_graphs)

let store_export jobs path out =
  setup jobs;
  let service = Serve.Service.create ~path () in
  let csv = Serve.Service.export_csv service in
  (match out with
  | Some file ->
    let oc = open_out file in
    output_string oc csv;
    close_out oc;
    Printf.printf "wrote %d annotated classes to %s\n" (Serve.Service.length service) file
  | None -> print_string csv);
  0

let store_export_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV (default: stdout).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Dump a store as the annotate-compatible CSV atlas (byte-identical to Dataset.to_csv)")
    Term.(const store_export $ jobs_opt $ store_path_arg $ out)

let store_merge dir out force quiet =
  setup_logs ();
  let report = if quiet then ignore else report_line in
  match Nf_store.Merge.merge_dir ~force ~report ~dir ~out () with
  | o ->
    Printf.printf "merged %d shards into %s: n=%d game=%s, %d classes in %d chunks in %.2fs\n"
      o.Nf_store.Merge.shards o.Nf_store.Merge.path o.Nf_store.Merge.n o.Nf_store.Merge.game
      o.Nf_store.Merge.records o.Nf_store.Merge.chunks o.Nf_store.Merge.seconds;
    0
  | exception Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let store_merge_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Directory holding the K shard volumes of one split.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"STORE" ~doc:"Canonical store file to write.")
  in
  let force = Arg.(value & flag & info [ "force" ] ~doc:"Overwrite an existing store.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-volume progress lines.") in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Reassemble a directory of verified shard volumes into one canonical store, \
          byte-identical to a single-process build; constant memory: each volume is verified, \
          then re-chunked, by one forward walk holding one frame at a time")
    Term.(const store_merge $ dir $ out $ force $ quiet)

let store_shards path =
  setup_logs ();
  if Sys.file_exists path && Sys.is_directory path then begin
    match Nf_store.Merge.volumes ~dir:path with
    | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | [] ->
      Printf.printf "%s: no shard volumes\n" path;
      1
    | vols ->
      List.iter
        (fun (p, h) ->
          let i, k = Option.get h.Nf_store.Layout.shard in
          Printf.printf "%s: shard %d/%d n=%d game=%s chunk=%d\n" p i k h.Nf_store.Layout.n
            (Nf_store.Build.game_of_content h.Nf_store.Layout.content)
            h.Nf_store.Layout.chunk_size)
        vols;
      (match Nf_store.Merge.family vols with
      | _ ->
        Printf.printf "complete %d-way family: ready to merge\n" (List.length vols);
        0
      | exception Failure msg ->
        Printf.printf "incomplete family: %s\n" msg;
        1)
  end
  else
    match Nf_store.Reader.scan ~path with
    | { Nf_store.Reader.failure = Some reason; _ } ->
      Printf.eprintf "%s: %s\n" path reason;
      1
    | scan ->
      let h = scan.Nf_store.Reader.header in
      (match h.Nf_store.Layout.shard with
      | Some (i, k) ->
        Printf.printf "%s: shard %d/%d n=%d game=%s chunk=%d (%d classes in %d chunks)\n" path i
          k h.Nf_store.Layout.n
          (Nf_store.Build.game_of_content h.Nf_store.Layout.content)
          h.Nf_store.Layout.chunk_size scan.Nf_store.Reader.records scan.Nf_store.Reader.chunks
      | None ->
        Printf.printf "%s: whole store (unsharded) n=%d game=%s chunk=%d (%d classes)\n" path
          h.Nf_store.Layout.n
          (Nf_store.Build.game_of_content h.Nf_store.Layout.content)
          h.Nf_store.Layout.chunk_size scan.Nf_store.Reader.records);
      0
    | exception Nf_store.Layout.Corrupt msg ->
      Printf.eprintf "%s: CORRUPT: %s\n" path msg;
      1
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

let store_shards_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE"
          ~doc:"A store file (whole or one shard volume), or a directory of shard volumes.")
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Show shard metadata: which slice a volume holds, or whether a directory forms a \
          complete mergeable family")
    Term.(const store_shards $ path)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Persistent, crash-resumable equilibrium-atlas store: build once (optionally sharded \
          across processes), query the annotation forever")
    [
      store_build_cmd; store_resume_cmd; store_query_cmd; store_verify_cmd; store_export_cmd;
      store_merge_cmd; store_shards_cmd;
    ]

(* ---------------- serve / query ---------------- *)

let serve_run jobs path socket port cache_chunks quiet =
  setup jobs;
  match (socket, port) with
  | Some _, Some _ ->
    Printf.eprintf "error: pass either --socket or --port, not both\n";
    1
  | socket, port -> (
    let addr =
      match (socket, port) with
      | _, Some p -> Serve.Server.Tcp p
      | Some s, None -> Serve.Server.Unix_socket s
      | None, None -> Serve.Server.Unix_socket (path ^ ".sock")
    in
    let report = if quiet then ignore else report_line in
    match Serve.Server.serve ?cache_chunks ~report ~addr ~path () with
    | () -> 0
    | exception Nf_store.Layout.Corrupt msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
      1)

let serve_cmd =
  let store =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"Store file or shard directory to serve.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket to listen on (default: $(i,STORE).sock).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"P" ~doc:"TCP port to listen on (binds 127.0.0.1 only).")
  in
  let cache_chunks =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-chunks" ] ~docv:"K"
          ~doc:"Decoded-chunk cache bound of the mmap read path (default 64; 0 disables).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No start/shutdown lines.") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running atlas query daemon: mmap-backed reads, per-game alpha-interval \
          indexes, line-delimited JSON protocol (stable-at | entry | figure-points | export \
          | stats | health | shutdown); clean SIGINT/SIGTERM shutdown")
    Term.(const serve_run $ jobs_opt $ store $ socket $ port $ cache_chunks $ quiet)

let emit_csv ~csv text =
  match csv with
  | Some file ->
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    Printf.eprintf "wrote %s\n" file
  | None -> print_string text

(* the one renderer of a response, in-process or --remote: stable-at
   prints one graph6 per line, entry prints `id N` then one
   `LABEL REGION` line per column, figures/export print the CSV *)
let render_response ~op ~csv resp =
  if not (Serve.Protocol.response_ok resp) then begin
    Printf.eprintf "error: %s\n" (Serve.Protocol.response_error resp);
    1
  end
  else
    let malformed () =
      Printf.eprintf "error: malformed response\n";
      1
    in
    let str_list j = List.filter_map Serve.Json.to_str (Option.value ~default:[] (Serve.Json.to_list j)) in
    match op with
    | Serve.Protocol.Stable_at _ -> (
      match Serve.Json.member "graphs" resp with
      | Some gs ->
        List.iter print_endline (str_list gs);
        0
      | None -> malformed ())
    | Serve.Protocol.Entry _ -> (
      match (Serve.Json.member "id" resp, Serve.Json.member "regions" resp) with
      | Some (Serve.Json.Int i), Some (Serve.Json.Obj kvs) ->
        Printf.printf "id %d\n" i;
        List.iter
          (fun (k, v) ->
            match Serve.Json.to_str v with Some s -> Printf.printf "%s %s\n" k s | None -> ())
          kvs;
        0
      | _ -> malformed ())
    | Serve.Protocol.Figure_points _ | Serve.Protocol.Export -> (
      match Option.bind (Serve.Json.member "csv" resp) Serve.Json.to_str with
      | Some text ->
        emit_csv ~csv text;
        0
      | None -> malformed ())
    | Serve.Protocol.Stats | Serve.Protocol.Health -> (
      match resp with
      | Serve.Json.Obj kvs ->
        List.iter
          (fun (k, v) ->
            if k <> "ok" && k <> "op" then
              match v with
              | Serve.Json.Int i -> Printf.printf "%s %d\n" k i
              | Serve.Json.Str s -> Printf.printf "%s %s\n" k s
              | v -> Printf.printf "%s %s\n" k (Serve.Json.to_string v))
          kvs;
        0
      | _ -> malformed ())
    | Serve.Protocol.Shutdown ->
      print_endline "server shutting down";
      0

(* in-process: the daemon's own evaluator over a service on the store *)
let query_local ~path ~csv = function
  | Serve.Protocol.Health | Serve.Protocol.Shutdown ->
    Printf.eprintf "error: this operation needs a daemon (pass --remote ADDR)\n";
    1
  | req -> render_response ~op:req ~csv (Serve.Server.respond (Serve.Service.create ~path ()) req)

let query_remote ~addr ~csv req =
  let client = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
  render_response ~op:req ~csv (Serve.Client.request client req)

let query_run jobs target remote game stable_at entry figures export stats health shutdown csv =
  setup jobs;
  let ops =
    List.concat
      [
        (match stable_at with Some alpha -> [ Serve.Protocol.Stable_at { game; alpha } ] | None -> []);
        (match entry with Some graph6 -> [ Serve.Protocol.Entry { graph6 } ] | None -> []);
        (if figures then [ Serve.Protocol.Figure_points { grid = None } ] else []);
        (if export then [ Serve.Protocol.Export ] else []);
        (if stats then [ Serve.Protocol.Stats ] else []);
        (if health then [ Serve.Protocol.Health ] else []);
        (if shutdown then [ Serve.Protocol.Shutdown ] else []);
      ]
  in
  match ops with
  | [] ->
    Printf.eprintf
      "error: pick one operation (--stable-at, --entry, --figures, --export, --stats, \
       --health, --shutdown)\n";
    1
  | _ :: _ :: _ ->
    Printf.eprintf "error: pick exactly one operation\n";
    1
  | [ req ] -> (
    let run () =
      if remote then query_remote ~addr:target ~csv req else query_local ~path:target ~csv req
    in
    match run () with
    | code -> code
    | exception Nf_store.Layout.Corrupt msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
      1)

let query_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A store file or shard directory; with $(b,--remote), a daemon address (a unix \
             socket path, or $(i,HOST:PORT)).")
  in
  let remote =
    Arg.(
      value & flag
      & info [ "remote" ]
          ~doc:
            "Send the query to a running $(b,netform serve) daemon instead of answering \
             in-process.  Outputs are byte-identical between the two modes.")
  in
  let game =
    Arg.(
      value
      & opt (some string) None
      & info [ "game" ] ~docv:"GAME"
          ~doc:
            "Game column to query (default: bcg on a classic store, the store's own game \
             otherwise).")
  in
  let stable_at =
    Arg.(
      value
      & opt (some alpha_conv) None
      & info [ "stable-at" ] ~docv:"ALPHA"
          ~doc:"Print the graph6 of every class stable at this exact link cost, one per line.")
  in
  let entry =
    Arg.(
      value
      & opt (some string) None
      & info [ "entry" ] ~docv:"G6" ~doc:"Look up one stored class by its graph6 string.")
  in
  let figures =
    Arg.(value & flag & info [ "figures" ] ~doc:"Print the figure-sweep CSV for the store.")
  in
  let export =
    Arg.(value & flag & info [ "export" ] ~doc:"Print the full atlas CSV (like store export).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print store/daemon statistics.") in
  let health = Arg.(value & flag & info [ "health" ] ~doc:"Daemon liveness check (--remote).") in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to shut down cleanly (--remote).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "One atlas query, answered in-process from a store, or by a $(b,netform serve) \
          daemon with $(b,--remote) — byte-identical either way")
    Term.(
      const query_run $ jobs_opt $ target $ remote $ game $ stable_at $ entry $ figures
      $ export $ stats $ health $ shutdown $ csv_opt)

let main_cmd =
  Cmd.group
    (Cmd.info "netform" ~version:"1.0.0"
       ~doc:"Bilateral vs unilateral network formation (Corbo & Parkes, PODC 2005)")
    [
      stability_cmd; named_cmd; games_cmd; enumerate_cmd; sweep_cmd; dynamics_cmd;
      mc_poa_cmd; annotate_cmd; experiments_cmd; store_cmd; serve_cmd; query_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
