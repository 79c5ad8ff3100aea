(* The orbit quotient's memo and flag (DESIGN.md §11): the per-chunk
   symmetry memo's lifecycle, and the pooled annotation path list-identical
   with the quotient off and on.  Every registered annotator is held to
   the unquotiented scan in test_differential.ml. *)

module Graph = Nf_graph.Graph
module Sym = Nf_iso.Symmetry
module E = Nf_analysis.Equilibria

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the per-chunk symmetry memo (satellite: clear_cache coverage) ---- *)

let test_memo_lifecycle () =
  Sym.set_quotient_enabled false;
  E.clear_cache ();
  ignore (E.bcg_annotated 5);
  check_int "quotient off: no memo entries" 0 (E.orbit_memo_size ());
  E.clear_cache ();
  Sym.set_quotient_enabled true;
  ignore (E.bcg_annotated 5);
  check_bool "quotient on: memo populated" true (E.orbit_memo_size () > 0);
  let size = E.orbit_memo_size () in
  ignore (E.transfers_annotated 5);
  check_int "second game reuses the chunk memo" size (E.orbit_memo_size ());
  E.clear_cache ();
  check_int "clear_cache drops the memo" 0 (E.orbit_memo_size ())

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
