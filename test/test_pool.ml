(* Tests for the domain pool: input-order determinism, jobs=1 equivalence,
   exception propagation and pool reuse, oversubscription, nested-call
   fallback — plus cross-checks that the parallel annotation and
   enumeration paths produce results identical to the sequential ones, and
   that the fused BCG stability kernel agrees with the point checker. *)

module Pool = Nf_util.Pool
module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Netform

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let int_list = Alcotest.(list int)

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------------- pool unit tests ---------------- *)

let test_map_ordering () =
  let input = List.init 1000 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1) input in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          check int_list
            (Printf.sprintf "jobs=%d ordered" jobs)
            expected
            (Pool.parallel_map ~pool (fun x -> (x * x) + 1) input)))
    [ 1; 2; 4 ]

let test_map_array () =
  let input = Array.init 513 string_of_int in
  let expected = Array.map String.length input in
  with_pool 4 (fun pool ->
      check
        Alcotest.(array int)
        "array map" expected
        (Pool.parallel_map_array ~pool String.length input))

let test_empty_and_singleton () =
  with_pool 4 (fun pool ->
      check int_list "empty" [] (Pool.parallel_map ~pool succ []);
      check int_list "singleton" [ 8 ] (Pool.parallel_map ~pool succ [ 7 ]);
      check Alcotest.(array int) "empty array" [||] (Pool.parallel_map_array ~pool succ [||]))

let test_jobs_one_equivalence () =
  (* jobs = 1 must behave exactly like List.map, including effect order *)
  with_pool 1 (fun pool ->
      let trace = ref [] in
      let out =
        Pool.parallel_map ~pool
          (fun x ->
            trace := x :: !trace;
            2 * x)
          [ 1; 2; 3; 4; 5 ]
      in
      check int_list "results" [ 2; 4; 6; 8; 10 ] out;
      check int_list "left-to-right effects" [ 5; 4; 3; 2; 1 ] !trace)

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "jobs=%d raises" jobs)
            (Failure "boom")
            (fun () ->
              ignore
                (Pool.parallel_map ~pool
                   (fun x -> if x = 137 then failwith "boom" else x)
                   (List.init 400 Fun.id)));
          (* the pool survives a failed batch and keeps producing correct
             results *)
          check int_list "reusable after failure"
            (List.init 100 (fun x -> x + 1))
            (Pool.parallel_map ~pool succ (List.init 100 Fun.id))))
    [ 1; 4 ]

let test_oversubscription () =
  (* more domains than cores: correctness must not depend on the machine *)
  with_pool 8 (fun pool ->
      let input = List.init 10_000 Fun.id in
      check_int "sum via pool" (List.fold_left ( + ) 0 input)
        (List.fold_left ( + ) 0 (Pool.parallel_map ~pool Fun.id input)))

let test_nested_calls_fall_back () =
  (* a work item that re-enters the same pool must not deadlock *)
  with_pool 4 (fun pool ->
      let out =
        Pool.parallel_map ~pool
          (fun x ->
            List.fold_left ( + ) 0 (Pool.parallel_map ~pool Fun.id (List.init x Fun.id)))
          [ 10; 20; 30; 40; 50; 60 ]
      in
      check int_list "nested sums" [ 45; 190; 435; 780; 1225; 1770 ] out)

let test_default_jobs_positive () =
  check_bool "default jobs >= 1" true (Pool.default_jobs () >= 1)

(* ---------------- parity: parallel vs sequential library paths -------- *)

(* run the same computation under a forced-parallel and a forced-sequential
   default pool, with cold caches, and insist on identical results *)
let under_default_jobs jobs compute =
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs 1)
    (fun () ->
      Nf_enum.Unlabeled.clear_cache ();
      Nf_analysis.Equilibria.clear_cache ();
      compute ())

let test_enumeration_parity () =
  let sequential = under_default_jobs 1 (fun () -> Nf_enum.Unlabeled.all_graphs 6) in
  let parallel = under_default_jobs 4 (fun () -> Nf_enum.Unlabeled.all_graphs 6) in
  check_int "same class count" (List.length sequential) (List.length parallel);
  check_bool "same graphs in same order" true
    (List.for_all2 Graph.equal sequential parallel);
  (* and the count still matches the OEIS reference *)
  check_int "A000088(6)" (Option.get (Nf_enum.Counts.graphs 6)) (List.length parallel)

let test_annotation_parity () =
  let run () =
    ( Nf_analysis.Equilibria.bcg_annotated 6,
      Nf_analysis.Source.fold (Nf_analysis.Source.of_game "transfers" 5)
        (fun acc g r -> (g, r.Nf_store.Layout.bcg) :: acc)
        [],
      Nf_analysis.Equilibria.ucg_annotated 4 )
  in
  let bcg_s, transfers_s, ucg_s = under_default_jobs 1 run in
  let bcg_p, transfers_p, ucg_p = under_default_jobs 4 run in
  let same_interval (g1, s1) (g2, s2) = Graph.equal g1 g2 && Interval.equal s1 s2 in
  check_bool "bcg annotations identical" true (List.for_all2 same_interval bcg_s bcg_p);
  check_bool "transfers annotations identical" true
    (List.for_all2 same_interval transfers_s transfers_p);
  check_bool "ucg annotations identical" true
    (List.for_all2
       (fun (g1, s1) (g2, s2) ->
         Graph.equal g1 g2
         && List.for_all2 Interval.equal (Interval.Union.to_list s1)
              (Interval.Union.to_list s2))
       ucg_s ucg_p)

(* ---------------- parity: fused kernel vs the point checker ----------- *)

let test_fused_kernel_membership () =
  (* the exact set and the literal Definition 3 checker must keep agreeing
     on either side of every breakpoint *)
  let grid =
    [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 3; Rat.of_int 5 ]
  in
  List.iter
    (fun g ->
      let set = Bcg.stable_alpha_set g in
      List.iter
        (fun alpha ->
          check_bool "membership = checker" (Interval.mem alpha set)
            (Bcg.is_pairwise_stable ~alpha g))
        grid)
    (Nf_enum.Unlabeled.connected_graphs 5)

let () =
  Alcotest.run "nf_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "map array" `Quick test_map_array;
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs=1 equivalence" `Quick test_jobs_one_equivalence;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "nested calls fall back" `Quick test_nested_calls_fall_back;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "parity",
        [
          Alcotest.test_case "enumeration parallel = sequential" `Quick
            test_enumeration_parity;
          Alcotest.test_case "annotation parallel = sequential" `Quick
            test_annotation_parity;
          Alcotest.test_case "fused kernel vs checker" `Quick
            test_fused_kernel_membership;
        ] );
    ]
