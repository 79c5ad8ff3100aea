(* The fresh-source memo and the orbit-quotient flag (DESIGN.md §11):
   the memo's lifecycle, and the pooled annotation path list-identical
   with the quotient off and on.  Every registered annotator is held to
   the unquotiented scan in test_differential.ml. *)

module Graph = Nf_graph.Graph
module Sym = Nf_iso.Symmetry
module E = Nf_analysis.Equilibria
module Source = Nf_analysis.Source

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the fresh-source memo: one annotation per (content, n) ---- *)

(* the first record a source folds over: a memo hit hands out the very
   same record, a recomputation a fresh one *)
let first_record source =
  Option.get (Source.fold source (fun acc _ r -> if acc = None then Some r else acc) None)

let test_memo_lifecycle () =
  E.clear_cache ();
  let r = first_record (Source.of_game "bcg" 5) in
  check_bool "same content: the memoized annotation" true
    (r == first_record (Source.of_game "bcg" 5));
  check_bool "other content: its own annotation" false (r == first_record (Source.classic 5));
  E.clear_cache ();
  check_bool "clear_cache drops the memo" false (r == first_record (Source.of_game "bcg" 5))

let test_flag_parity () =
  (* the pooled annotate path itself, flag off vs on, must be
     list-identical (same enumeration order, same regions) *)
  let annotated flag =
    Sym.set_quotient_enabled flag;
    E.clear_cache ();
    E.bcg_annotated 6
  in
  let off = annotated false and on = annotated true in
  Sym.set_quotient_enabled true;
  E.clear_cache ();
  check_int "same length" (List.length off) (List.length on);
  List.iter2
    (fun (g1, r1) (g2, r2) ->
      check_bool "same graph order" true (Graph.equal g1 g2);
      check_bool "same region" true (Nf_util.Interval.equal r1 r2))
    off on

let () =
  Alcotest.run "nf_orbit"
    [
      ( "memo",
        [
          Alcotest.test_case "lifecycle" `Quick test_memo_lifecycle;
          Alcotest.test_case "flag parity" `Quick test_flag_parity;
        ] );
    ]
