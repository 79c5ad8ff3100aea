(* Tests for nf_analysis: grids, annotated-class sources, figure sweeps, and
   the experiment table's self-checks. *)

module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Nf_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_sweep_grid () =
  check_bool "grid sorted" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> Rat.(a < b) && sorted rest
       | _ -> true
     in
     sorted Sweep.paper_grid);
  check_bool "dyadic exact" true (Rat.equal (Sweep.dyadic 0.375) (Rat.make 3 8));
  Alcotest.check_raises "non-dyadic rejected"
    (Invalid_argument "Sweep.dyadic: not dyadic with denominator <= 4096") (fun () ->
      ignore (Sweep.dyadic 0.1));
  check_int "log grid size" 7 (List.length (Sweep.log_floats ~lo:0.5 ~hi:32.0 ~points:7))

let bcg5 = Source.of_game "bcg" 5

let test_equilibria_bcg_counts () =
  (* at α = 1/2 only the complete graph is stable; at α = 2 several are,
     and every reported graph is indeed stable *)
  let stable alpha = Source.stable bcg5 ~game:"bcg" ~alpha in
  check_int "n=5 alpha=1/2" 1 (List.length (stable (Rat.make 1 2)));
  check_bool "n=5 alpha=2 several" true (List.length (stable (Rat.of_int 2)) > 1);
  List.iter
    (fun g ->
      check_bool "reported stable" true
        (Netform.Bcg.is_pairwise_stable ~alpha:(Rat.of_int 2) g))
    (stable (Rat.of_int 2))

let test_equilibria_ucg_counts () =
  check_int "n=4 alpha=1/2 only complete" 1
    (List.length (Source.stable (Source.classic 4) ~game:"ucg" ~alpha:(Rat.make 1 2)));
  List.iter
    (fun g ->
      check_bool "reported nash" true (Netform.Ucg.is_nash_graph ~alpha:(Rat.of_int 2) g))
    (Source.stable (Source.classic 5) ~game:"ucg" ~alpha:(Rat.of_int 2))

let test_ever_stable_subset () =
  let all = Source.fold bcg5 (fun k _ _ -> k + 1) 0 in
  let ever =
    Source.fold bcg5
      (fun acc g r -> if Interval.is_empty r.Nf_store.Layout.bcg then acc else g :: acc)
      []
  in
  check_int "21 classes" 21 all;
  check_bool "ever-stable is a subset" true (List.length ever <= all);
  List.iter
    (fun g -> check_bool "stable at 2: ever stable" true (List.exists (Nf_graph.Graph.equal g) ever))
    (Source.stable bcg5 ~game:"bcg" ~alpha:(Rat.of_int 2))

let test_figures_sweep () =
  let points = Figures.sweep ~n:5 ~grid:[ Rat.make 1 2; Rat.of_int 2; Rat.of_int 8 ] () in
  check_int "three points" 3 (List.length points);
  List.iter
    (fun p ->
      check_bool "counts nonneg" true (p.Figures.ucg.Netform.Poa.count >= 0);
      (* whenever equilibria exist the average PoA is at least 1 *)
      if p.Figures.bcg.Netform.Poa.count > 0 then
        check_bool "bcg avg >= 1" true (p.Figures.bcg.Netform.Poa.average >= 1.0 -. 1e-9))
    points;
  let csv = Figures.to_csv points in
  check_int "csv lines" 4 (List.length (String.split_on_char '\n' (String.trim csv)))

(* one entry of the experiment table, run at n = 5 *)
let run_entry id =
  (Option.get (Experiments.find Experiments.table id)).run (Experiments.context (Source.classic 5))

let test_experiment_checks_pass () =
  (* the cheap experiments self-validate *)
  List.iter
    (fun id ->
      let r = run_entry id in
      Alcotest.(check string) "result carries the entry's id" id r.Experiments.id;
      check_bool (id ^ " ok") true r.Experiments.ok;
      check_bool (id ^ " has body") true (String.length r.Experiments.body > 0))
    [ "E3"; "E4"; "E5"; "E6"; "E10"; "E12"; "E13" ]

let test_experiment_table () =
  (* the table is the one list of experiments: unique ids in order, E19
     (the sampled n = 10 study) retired, and lookups case-insensitive *)
  let ids = List.map (fun (e : Experiments.entry) -> e.id) Experiments.table in
  Alcotest.(check (list string)) "ids in order"
    (List.filter (( <> ) "E19") (List.init 23 (fun k -> Printf.sprintf "E%d" (k + 1))))
    ids;
  check_int "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids));
  check_bool "find is case-insensitive" true
    (match Experiments.find Experiments.table "e12" with
    | Some e -> e.id = "E12"
    | None -> false);
  check_bool "no E19" true (Experiments.find Experiments.table "E19" = None)

let test_shapes_classify () =
  let module Shapes = Nf_analysis.Shapes in
  let module Families = Nf_named.Families in
  let is shape g = Alcotest.(check string) "shape" shape (Shapes.shape_name (Shapes.classify g)) in
  is "complete" (Families.complete 5);
  is "star" (Families.star 5);
  is "path" (Families.path 5);
  is "cycle" (Families.cycle 5);
  is "tree" (Nf_graph.Graph.of_edges 6 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5) ]);
  is "diam<=2" (Nf_graph.Graph.remove_edge (Families.complete 5) 0 1);
  is "3-regular" Nf_named.Gallery.mcgee;
  (* triangle with a pendant path: cyclic, irregular, diameter 3 *)
  is "other" (Nf_graph.Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ]);
  check_bool "census counts" true
    (Shapes.census [ Families.star 4; Families.star 5; Families.path 4 ]
    = [ (Nf_analysis.Shapes.Star, 2); (Nf_analysis.Shapes.Path, 1) ]);
  check_bool "all_trees" true (Shapes.all_trees [ Families.star 4; Families.path 6 ]);
  check_bool "not all_trees" false (Shapes.all_trees [ Families.cycle 4 ])

let test_e18_smoke () =
  let e18 = run_entry "E18" in
  check_bool "e18 ok" true e18.Experiments.ok

let test_transfers_equilibria () =
  List.iter
    (fun g ->
      check_bool "reported transfer-stable" true
        (Nf_test_support.Oracle.(pairwise_stable transfers) ~alpha:(Rat.of_int 2) g))
    (Source.stable (Source.of_game "transfers" 5) ~game:"transfers" ~alpha:(Rat.of_int 2))

let test_transfers_stable_graphs_complete () =
  (* a transfers source's stable set is sound AND complete: it equals
     filtering the full enumeration by the oracle's Definition 3 *)
  let alphas = [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 5 ] in
  List.iter
    (fun n ->
      let all = Nf_enum.Unlabeled.connected_graphs n in
      List.iter
        (fun alpha ->
          let label what =
            Printf.sprintf "n=%d alpha=%s %s" n (Rat.to_string alpha) what
          in
          let reported = Source.stable (Source.of_game "transfers" n) ~game:"transfers" ~alpha in
          let expected =
            List.filter (Nf_test_support.Oracle.(pairwise_stable transfers) ~alpha) all
          in
          check_int (label "count") (List.length expected) (List.length reported);
          List.iter2
            (fun a b ->
              check_bool (label "same graphs, enumeration order") true
                (Nf_graph.Graph.equal a b))
            expected reported)
        alphas)
    [ 4; 5 ]

(* the CLI binary, located relative to this test executable
   (_build/default/test/..) so the tests work from any cwd *)
let cli =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/netform_cli.exe"

let read_and_remove path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_cli_game_sweep_roundtrip () =
  (* `netform sweep --game transfers --csv` must emit exactly the CSV the
     library produces for the same sweep — the CLI is a thin shell over
     Figures.sweep_game over a fresh source, not a second
     implementation. *)
  check_bool "CLI binary built" true (Sys.file_exists cli);
  let csv_path = Filename.temp_file "netform_sweep" ".csv" in
  let log_path = Filename.temp_file "netform_sweep" ".log" in
  let command =
    Printf.sprintf "%s sweep --game transfers -n 5 --csv %s > %s 2>&1"
      (Filename.quote cli) (Filename.quote csv_path) (Filename.quote log_path)
  in
  let status = Sys.command command in
  let from_cli = read_and_remove csv_path in
  let log = read_and_remove log_path in
  check_int ("sweep exit status; output:\n" ^ log) 0 status;
  let expected =
    Figures.game_csv
      (Figures.sweep_game (Netform.Game_registry.find_exn "transfers")
         (Source.of_game "transfers" 5))
  in
  Alcotest.(check string) "CLI csv = library csv" expected from_cli

(* `netform ARGS`: exit status, stdout, stderr *)
let run_cli args =
  let out_path = Filename.temp_file "netform_only" ".out" in
  let err_path = Filename.temp_file "netform_only" ".err" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args (Filename.quote out_path)
         (Filename.quote err_path))
  in
  let out = read_and_remove out_path in
  let err = read_and_remove err_path in
  (status, out, err)

let run_experiments_cli args = run_cli ("experiments " ^ args)

let build_store ?game n =
  let path = Filename.temp_file "netform_experiments" ".nfs" in
  ignore (Nf_store.Build.build ?game ~force:true ~path ~n ());
  path

let test_cli_experiments_unknown_only () =
  (* an --only id that names no experiment is refused before the suite
     runs: exit 2, nothing on stdout, the pinned message on stderr *)
  let status, out, err = run_experiments_cli "-n 5 --only E99" in
  check_int "unknown id: exit 2" 2 status;
  Alcotest.(check string) "unknown id: no stdout" "" out;
  Alcotest.(check string) "unknown id: message"
    (Printf.sprintf "error: unknown experiment id \"E99\" (known: %s)\n"
       (String.concat ", " (List.map (fun (e : Experiments.entry) -> e.id) Experiments.table)))
    err;
  let status, out, err = run_experiments_cli "-n 4 --game transfers --only E1" in
  check_int "id outside the --game sweep: exit 2" 2 status;
  Alcotest.(check string) "id outside the --game sweep: no stdout" "" out;
  Alcotest.(check string) "id outside the --game sweep: message"
    "error: unknown experiment id \"E1\" (known: G:transfers)\n" err

let test_cli_experiments_store () =
  (* --store feeds E1/E2 the store's points at the store's n: the same
     bytes as a fresh sweep at that n.  A store without the UCG column
     cannot give Figures 2/3 and is refused before anything runs. *)
  let classic = build_store 5 in
  List.iter
    (fun id ->
      let status, from_store, err =
        run_experiments_cli (Printf.sprintf "--store %s --only %s" (Filename.quote classic) id)
      in
      check_int (id ^ " from the store: exit 0; stderr:\n" ^ err) 0 status;
      let status, fresh, _ = run_experiments_cli ("-n 5 --only " ^ id) in
      check_int (id ^ " fresh: exit 0") 0 status;
      Alcotest.(check string) (id ^ ": store = fresh sweep") fresh from_store)
    [ "E1"; "E2" ];
  let bcg_only = build_store ~game:"bcg" 5 in
  let status, out, err =
    run_experiments_cli (Printf.sprintf "--store %s --only E1" (Filename.quote bcg_only))
  in
  Sys.remove classic;
  Sys.remove bcg_only;
  check_int "BCG-only store: exit 2" 2 status;
  Alcotest.(check string) "BCG-only store: no stdout" "" out;
  Alcotest.(check string) "BCG-only store: message"
    "error: store carries \"bcg\" annotations only; Figures 2/3 need a BCG+UCG store\n" err

let test_cli_store_errors () =
  (* every command that reads a store refuses a missing or truncated one,
     and a game the store does not carry or the registry does not know,
     before printing anything: exit 2, empty stdout, one "error: ..."
     line.  (store export reads the store's own game: it has no --game.) *)
  let missing = Filename.temp_file "netform_missing" ".nfs" in
  Sys.remove missing;
  let transfers = build_store ~game:"transfers" 5 in
  let truncated = Filename.temp_file "netform_truncated" ".nfs" in
  (let whole = read_and_remove (build_store ~game:"bcg" 5) in
   Out_channel.with_open_bin truncated (fun oc ->
       output_string oc (String.sub whole 0 (String.length whole * 2 / 3))));
  let q = Filename.quote in
  let no_file = Printf.sprintf "error: No such file or directory: open %s\n" missing in
  let not_carried game =
    Printf.sprintf "error: store carries \"transfers\" annotations, not %S\n" game
  in
  let cut =
    Printf.sprintf
      "error: %s: incomplete store (0 records in 0 complete chunks; resume the build)\n"
      truncated
  in
  List.iter
    (fun (args, message) ->
      let status, out, err = run_cli args in
      check_int (args ^ ": exit 2") 2 status;
      Alcotest.(check string) (args ^ ": no stdout") "" out;
      Alcotest.(check string) (args ^ ": message") message err)
    [
      ("sweep --store " ^ q missing, no_file);
      ("sweep --game bcg --store " ^ q missing, no_file);
      ("store query --alpha 1 " ^ q missing, no_file);
      ("store export " ^ q missing, no_file);
      ("query --export " ^ q missing, no_file);
      ("sweep --game ucg --store " ^ q transfers, not_carried "ucg");
      ("sweep --game nope --store " ^ q transfers, not_carried "nope");
      ("sweep --store " ^ q truncated, cut);
      ("store query --alpha 2 --game ucg " ^ q transfers, not_carried "ucg");
      ("store query --alpha 2 --game nope " ^ q transfers, not_carried "nope");
      ("store query --alpha 2 " ^ q truncated, cut);
      ("store export " ^ q truncated, cut);
      ("query --stable-at 2 --game ucg " ^ q transfers, not_carried "ucg");
      ("query --stable-at 2 --game nope " ^ q transfers, not_carried "nope");
      ("query --export " ^ q truncated, cut);
    ];
  Sys.remove transfers;
  Sys.remove truncated

let test_dataset_roundtrip () =
  let module Dataset = Nf_analysis.Dataset in
  let source = Source.classic 5 in
  let records = List.rev (Source.fold source (fun acc g r -> (g, r) :: acc) []) in
  check_int "21 classes" 21 (List.length records);
  let reloaded = Dataset.of_csv (Dataset.to_csv source) in
  check_int "roundtrip length" (List.length records) (List.length reloaded);
  List.iter2
    (fun (g, (r : Nf_store.Layout.record)) b ->
      check_bool "graph roundtrip" true (Nf_graph.Graph.equal g b.Dataset.graph);
      check_bool "stable roundtrip" true (Interval.equal r.Nf_store.Layout.bcg b.Dataset.bcg_stable);
      check_bool "nash roundtrip" true
        (match (r.Nf_store.Layout.ucg, b.Dataset.ucg_nash) with
        | Some u1, Some u2 -> Interval.Union.equal u1 u2
        | None, None -> true
        | Some _, None | None, Some _ -> false))
    records reloaded;
  (* file round trip *)
  let path = Filename.temp_file "netform" ".csv" in
  Dataset.save ~path source;
  let from_file = Dataset.load ~path in
  Sys.remove path;
  check_int "file roundtrip" (List.length records) (List.length from_file);
  (* a single-game atlas: one column named after the game, same syntax *)
  Alcotest.(check (list string))
    "transfers header and first row"
    [ "graph6,n,m,transfers_stable"; "Ds_,5,4,[1;inf)" ]
    (List.filteri (fun i _ -> i < 2)
       (String.split_on_char '\n' (Dataset.to_csv (Source.of_game "transfers" 5))))

let test_dataset_interval_syntax () =
  let module Dataset = Nf_analysis.Dataset in
  let cases =
    [
      Interval.empty;
      Interval.closed (Rat.of_int 1) (Rat.of_int 5);
      Interval.open_closed Rat.zero (Interval.Finite (Rat.make 7 2));
      Interval.open_closed (Rat.of_int 2) Interval.Pos_inf;
      Interval.point (Rat.make 3 2);
    ]
  in
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "syntax roundtrip %s" (Dataset.interval_to_string i))
        true
        (Interval.equal i (Dataset.interval_of_string (Dataset.interval_to_string i))))
    cases;
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Dataset.interval_of_string: bad opening bracket") (fun () ->
      ignore (Dataset.interval_of_string "zzzzz"))

let test_dataset_csv_errors () =
  let module Dataset = Nf_analysis.Dataset in
  let header = "graph6,n,m,bcg_stable,ucg_nash" in
  let rejects what text =
    check_bool what true
      (match Dataset.of_csv text with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "bad header" "not,a,dataset\nD??,5,0,empty,-";
  rejects "wrong field count" (header ^ "\nD??,5,0,empty");
  rejects "corrupt graph6 field" (header ^ "\n\x01\x02,5,0,empty,-");
  rejects "malformed interval" (header ^ "\nD??,5,0,zzzzz,-");
  rejects "malformed rational" (header ^ "\nD??,5,0,[1;x],-");
  rejects "zero denominator" (header ^ "\nD??,5,0,[1/0;2],-");
  rejects "malformed union piece" (header ^ "\nD??,5,0,empty,[1;2]|junk");
  (* and the happy path still parses, so the guards are not over-eager *)
  let entries = Dataset.of_csv (header ^ "\nD??,5,0,[1/2;2),(0;1]|[3;inf)") in
  check_int "one row" 1 (List.length entries)

let test_parse_alpha () =
  let module Parse = Nf_analysis.Parse in
  let ok s expected =
    match Parse.alpha_of_string s with
    | Ok r -> check_bool ("parse " ^ s) true (Rat.equal r expected)
    | Error e -> Alcotest.fail e
  in
  ok "2" (Rat.of_int 2);
  ok "0.75" (Rat.make 3 4);
  ok "7/2" (Rat.make 7 2);
  ok " 3 " (Rat.of_int 3);
  check_bool "garbage rejected" true (Result.is_error (Parse.alpha_of_string "x"));
  check_bool "non-dyadic decimal rejected" true (Result.is_error (Parse.alpha_of_string "0.1"))

let test_parse_graph () =
  let module Parse = Nf_analysis.Parse in
  (match Parse.graph_of_spec "PETERSEN" with
  | Ok g -> check_int "petersen order" 10 (Nf_graph.Graph.order g)
  | Error e -> Alcotest.fail e);
  (match Parse.graph_of_spec "C~" with
  | Ok g -> check_bool "graph6 k4" true (Nf_graph.Graph.is_complete g)
  | Error e -> Alcotest.fail e);
  check_bool "junk rejected" true (Result.is_error (Parse.graph_of_spec "\x01\x02"));
  check_bool "all names resolve" true
    (List.for_all
       (fun (name, _) -> Result.is_ok (Parse.graph_of_spec name))
       Parse.named_graphs)

let test_footnote6_poa_factor () =
  (* footnote 6: for any graph and alpha > 1, rho_UCG(G) <= 2 rho_BCG(G)
     (for large enough n in the 1 < alpha <= 2 branch; we probe n >= 5) *)
  let rng = Nf_util.Prng.create 83 in
  for _ = 1 to 200 do
    let n = 5 + Nf_util.Prng.int rng 4 in
    let g = Nf_graph.Random_graph.connected_gnp rng n 0.4 in
    List.iter
      (fun alpha ->
        let u = Netform.Poa.price_of_anarchy Netform.Cost.Ucg ~alpha g
        and b = Netform.Poa.price_of_anarchy Netform.Cost.Bcg ~alpha g in
        check_bool "ucg <= 2 bcg" true
          (u <= (Netform.Theory.ucg_vs_bcg_poa_factor *. b) +. 1e-9))
      [ 1.25; 1.5; 2.0; 3.0; 8.0; 20.0 ]
  done

let test_report_write_all () =
  let module Report = Nf_analysis.Report in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "netform_report_test" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let results = [ run_entry "E12" ] in
  let points = Figures.sweep ~n:5 ~grid:[ Rat.of_int 2 ] () in
  let written = Report.write_all ~dir ~results ~points () in
  check_int "three files" 3 (List.length written);
  List.iter (fun path -> check_bool "file exists" true (Sys.file_exists path)) written;
  (* summary mentions the experiment id and status *)
  let summary_path = Filename.concat dir "summary.txt" in
  let ic = open_in summary_path in
  let line = input_line ic in
  close_in ic;
  check_bool "summary line" true
    (String.length line > 4 && String.sub line 0 3 = "E12");
  check_bool "status ok" true
    (String.length line >= 2 && String.sub line (String.length line - 2) 2 = "ok");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_report_slug () =
  Alcotest.(check string) "slug" "figure-2-average-poa-n-6"
    (Nf_analysis.Report.slug_of_title "Figure 2 - average PoA (n=6)")

let test_experiment_render () =
  let r = run_entry "E12" in
  let s = Experiments.render r in
  check_bool "render mentions id" true
    (String.length s > 10 && String.sub s 0 7 = "=== E12")

let () =
  Alcotest.run "nf_analysis"
    [
      ("sweep", [ Alcotest.test_case "grids" `Quick test_sweep_grid ]);
      ( "equilibria",
        [
          Alcotest.test_case "bcg counts" `Quick test_equilibria_bcg_counts;
          Alcotest.test_case "ucg counts" `Quick test_equilibria_ucg_counts;
          Alcotest.test_case "ever stable" `Quick test_ever_stable_subset;
        ] );
      ("figures", [ Alcotest.test_case "sweep" `Quick test_figures_sweep ]);
      ("shapes", [ Alcotest.test_case "classify" `Quick test_shapes_classify ]);
      ( "dataset",
        [
          Alcotest.test_case "roundtrip" `Quick test_dataset_roundtrip;
          Alcotest.test_case "interval syntax" `Quick test_dataset_interval_syntax;
          Alcotest.test_case "csv errors" `Quick test_dataset_csv_errors;
        ] );
      ( "parse",
        [
          Alcotest.test_case "alpha" `Quick test_parse_alpha;
          Alcotest.test_case "graph" `Quick test_parse_graph;
        ] );
      ( "report",
        [
          Alcotest.test_case "write all" `Quick test_report_write_all;
          Alcotest.test_case "slug" `Quick test_report_slug;
        ] );
      ( "theory bridges",
        [ Alcotest.test_case "footnote 6 factor" `Quick test_footnote6_poa_factor ] );
      ( "experiments",
        [
          Alcotest.test_case "self checks" `Slow test_experiment_checks_pass;
          Alcotest.test_case "table" `Quick test_experiment_table;
          Alcotest.test_case "e18 smoke" `Quick test_e18_smoke;
          Alcotest.test_case "transfers equilibria" `Quick test_transfers_equilibria;
          Alcotest.test_case "transfers stable graphs complete" `Quick
            test_transfers_stable_graphs_complete;
          Alcotest.test_case "cli game sweep roundtrip" `Quick test_cli_game_sweep_roundtrip;
          Alcotest.test_case "cli unknown --only id" `Quick test_cli_experiments_unknown_only;
          Alcotest.test_case "cli --store feeds E1/E2" `Quick test_cli_experiments_store;
          Alcotest.test_case "cli store errors exit 2" `Quick test_cli_store_errors;
          Alcotest.test_case "render" `Quick test_experiment_render;
        ] );
    ]
