(* Tests for nf_analysis: grids, equilibrium caches, figure sweeps, and
   the experiment runners' self-checks. *)

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

let test_equilibria_bcg_counts () =
  (* at α = 1/2 only the complete graph is stable; at α = 1 every
     diameter-<=2 connected graph with no redundant... just check known
     endpoints *)
  check_int "n=5 alpha=1/2" 1
    (List.length (Equilibria.bcg_stable_graphs ~n:5 ~alpha:(Rat.make 1 2)));
  check_bool "n=5 alpha=2 several" true
    (List.length (Equilibria.bcg_stable_graphs ~n:5 ~alpha:(Rat.of_int 2)) > 1);
  (* every reported graph is indeed stable *)
  List.iter
    (fun g ->
      check_bool "reported stable" true
        (Netform.Bcg.is_pairwise_stable ~alpha:(Rat.of_int 2) g))
    (Equilibria.bcg_stable_graphs ~n:5 ~alpha:(Rat.of_int 2))

let test_equilibria_ucg_counts () =
  check_int "n=4 alpha=1/2 only complete" 1
    (List.length (Equilibria.ucg_nash_graphs ~n:4 ~alpha:(Rat.make 1 2)));
  List.iter
    (fun g ->
      check_bool "reported nash" true (Netform.Ucg.is_nash_graph ~alpha:(Rat.of_int 2) g))
    (Equilibria.ucg_nash_graphs ~n:5 ~alpha:(Rat.of_int 2))

let test_ever_stable_subset () =
  let all = Equilibria.bcg_annotated 5 in
  let ever = Equilibria.bcg_ever_stable 5 in
  check_bool "ever-stable is a subset" true (List.length ever <= List.length all);
  List.iter
    (fun (_, set) -> check_bool "nonempty" true (not (Interval.is_empty set)))
    ever

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

let test_experiment_checks_pass () =
  (* the cheap experiments self-validate *)
  let results =
    [
      Experiments.e3_figure1_gallery ();
      Experiments.e4_lemma4 ~n:5 ();
      Experiments.e5_lemma5 ~n:5 ();
      Experiments.e6_lemma6_cycles ~max_n:10 ();
      Experiments.e10_footnote5_cycles ();
      Experiments.e12_desargues ();
      Experiments.e13_eq5_bound ~n:5 ();
    ]
  in
  List.iter
    (fun r ->
      check_bool (r.Experiments.id ^ " ok") true r.Experiments.ok;
      check_bool (r.Experiments.id ^ " has body") true (String.length r.Experiments.body > 0))
    results

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

let test_e18_e19_smoke () =
  let e18 = Experiments.e18_bcg_scaling ~max_n:5 () in
  check_bool "e18 ok" true e18.Experiments.ok;
  let e19 = Experiments.e19_sampled_n10 ~n:8 ~attempts:10 ~seed:1 () in
  check_bool "e19 ok" true e19.Experiments.ok;
  (* deterministic given the seed *)
  let e19' = Experiments.e19_sampled_n10 ~n:8 ~attempts:10 ~seed:1 () in
  Alcotest.(check string) "e19 deterministic" e19.Experiments.body e19'.Experiments.body

let test_transfers_equilibria () =
  List.iter
    (fun g ->
      check_bool "reported transfer-stable" true
        (Netform.Transfers.is_stable ~alpha:(Rat.of_int 2) g))
    (Equilibria.transfers_stable_graphs ~n:5 ~alpha:(Rat.of_int 2))

let test_transfers_stable_graphs_complete () =
  (* transfers_stable_graphs is sound AND complete: it equals filtering
     the full enumeration by the certifier, and agrees with the generic
     registry route it is now a wrapper over *)
  let alphas = [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 5 ] in
  List.iter
    (fun n ->
      let all = Nf_enum.Unlabeled.connected_graphs n in
      List.iter
        (fun alpha ->
          let label what =
            Printf.sprintf "n=%d alpha=%s %s" n (Rat.to_string alpha) what
          in
          let reported = Equilibria.transfers_stable_graphs ~n ~alpha in
          let expected = List.filter (Netform.Transfers.is_stable ~alpha) all in
          check_int (label "count") (List.length expected) (List.length reported);
          List.iter2
            (fun a b ->
              check_bool (label "same graphs, enumeration order") true
                (Nf_graph.Graph.equal a b))
            expected reported;
          let generic =
            Equilibria.stable_graphs_packed
              (Netform.Game.Any Netform.Game_registry.transfers)
              ~n ~alpha
          in
          check_int (label "registry route agrees") (List.length reported)
            (List.length generic);
          List.iter2
            (fun a b -> check_bool (label "registry graphs") true (Nf_graph.Graph.equal a b))
            reported generic)
        alphas)
    [ 4; 5 ]

let test_cli_game_sweep_roundtrip () =
  (* `netform sweep --game transfers --csv` must emit exactly the CSV the
     library produces for the same sweep — the CLI is a thin shell over
     Figures.sweep_game, not a second implementation.  The binary is
     located relative to this test executable (_build/default/test/..),
     so the test works regardless of the caller's cwd. *)
  let cli =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/netform_cli.exe"
  in
  check_bool "CLI binary built" true (Sys.file_exists cli);
  let csv_path = Filename.temp_file "netform_sweep" ".csv" in
  let log_path = Filename.temp_file "netform_sweep" ".log" in
  let command =
    Printf.sprintf "%s sweep --game transfers -n 5 --csv %s > %s 2>&1"
      (Filename.quote cli) (Filename.quote csv_path) (Filename.quote log_path)
  in
  let status = Sys.command command in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let from_cli = read_file csv_path in
  let log = read_file log_path in
  Sys.remove csv_path;
  Sys.remove log_path;
  check_int ("sweep exit status; output:\n" ^ log) 0 status;
  let expected =
    Figures.game_csv
      (Figures.sweep_game (Netform.Game_registry.find_exn "transfers") ~n:5 ())
  in
  Alcotest.(check string) "CLI csv = library csv" expected from_cli

let test_cli_experiments_unknown_only () =
  (* an --only id that names no experiment is refused before the suite
     runs: exit 2, nothing on stdout, the pinned message on stderr *)
  let cli =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/netform_cli.exe"
  in
  let out_path = Filename.temp_file "netform_only" ".out" in
  let err_path = Filename.temp_file "netform_only" ".err" in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let run args =
    let status =
      Sys.command
        (Printf.sprintf "%s experiments %s > %s 2> %s" (Filename.quote cli) args
           (Filename.quote out_path) (Filename.quote err_path))
    in
    let out = read_file out_path in
    let err = read_file err_path in
    (status, out, err)
  in
  let status, out, err = run "-n 5 --only E99" in
  check_int "unknown id: exit 2" 2 status;
  Alcotest.(check string) "unknown id: no stdout" "" out;
  Alcotest.(check string) "unknown id: message"
    (Printf.sprintf "error: unknown experiment id \"E99\" (known: %s)\n"
       (String.concat ", " Experiments.ids))
    err;
  let status, out, err = run "-n 4 --game transfers --only E1" in
  check_int "id outside the --game sweep: exit 2" 2 status;
  Alcotest.(check string) "id outside the --game sweep: no stdout" "" out;
  Alcotest.(check string) "id outside the --game sweep: message"
    "error: unknown experiment id \"E1\" (known: G:transfers)\n" err;
  Alcotest.(check (list string)) "ids"
    (List.init 23 (fun k -> Printf.sprintf "E%d" (k + 1)))
    Experiments.ids

let test_dataset_roundtrip () =
  let module Dataset = Nf_analysis.Dataset in
  let entries = Dataset.build 5 in
  check_int "21 classes" 21 (List.length entries);
  let text = Dataset.to_csv entries in
  let reloaded = Dataset.of_csv text in
  check_int "roundtrip length" (List.length entries) (List.length reloaded);
  List.iter2
    (fun a b ->
      check_bool "graph roundtrip" true (Nf_graph.Graph.equal a.Dataset.graph b.Dataset.graph);
      check_bool "stable roundtrip" true (Interval.equal a.Dataset.bcg_stable b.Dataset.bcg_stable);
      check_bool "nash roundtrip" true
        (match (a.Dataset.ucg_nash, b.Dataset.ucg_nash) with
        | Some u1, Some u2 -> Interval.Union.equal u1 u2
        | None, None -> true
        | Some _, None | None, Some _ -> false))
    entries reloaded;
  (* file round trip *)
  let path = Filename.temp_file "netform" ".csv" in
  Dataset.save ~path entries;
  let from_file = Dataset.load ~path in
  Sys.remove path;
  check_int "file roundtrip" (List.length entries) (List.length from_file)

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
  let results = [ Experiments.e12_desargues () ] in
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
  let r = Experiments.e12_desargues () in
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
          Alcotest.test_case "e18/e19 smoke" `Quick test_e18_e19_smoke;
          Alcotest.test_case "transfers equilibria" `Quick test_transfers_equilibria;
          Alcotest.test_case "transfers stable graphs complete" `Quick
            test_transfers_stable_graphs_complete;
          Alcotest.test_case "cli game sweep roundtrip" `Quick test_cli_game_sweep_roundtrip;
          Alcotest.test_case "cli unknown --only id" `Quick test_cli_experiments_unknown_only;
          Alcotest.test_case "render" `Quick test_experiment_render;
        ] );
    ]
