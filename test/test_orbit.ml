(* Registry-driven differential harness for the orbit quotient
   (DESIGN.md §11): for every registered game — including one example
   member per parameterized family, via [Game_registry.ci_instances], so
   families like coalition:k=2 cannot drop out — annotating through the
   symmetry path — with either detection tier — must agree exactly with
   the unquotiented loop on every connected graph up to n = 7 and on the
   named gallery.  Games that ignore the subgroup (weighted BCG, the
   adversary, coalition:k>=2) ride along, so every annotator is held to
   the same contract.

   The UCG orientation search makes Union-region games far more
   expensive per graph, so their gallery leg stops at order 10. *)

open Netform
module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Sym = Nf_iso.Symmetry
module E = Nf_analysis.Equilibria

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let exhaustive_cap = 7

(* gallery cap keyed off the region shape: Union regions mean an
   orientation search per annotation (UCG), orders of magnitude above the
   interval games' edge scans *)
let gallery_cap (Game.Any (module G)) =
  match G.region_kind with Game.Region.Interval -> 30 | Game.Region.Union -> 10

let diff pack ws g label =
  match pack with
  | Game.Any (module G) ->
    let plain = G.stable_region_ws ws (Sym.trivial (Graph.order g)) g in
    let agree sym = Game.Region.equal G.region_kind plain (G.stable_region_ws ws sym g) in
    if not (agree (Sym.detect_twins g)) then
      Alcotest.failf "%s: %s: twin-tier quotient diverges from plain scan" G.name label;
    if not (agree (Sym.detect_full g)) then
      Alcotest.failf "%s: %s: full-group quotient diverges from plain scan" G.name label

let test_exhaustive pack () =
  let count = ref 0 in
  Kernel.with_ws (fun ws ->
      for n = 3 to exhaustive_cap do
        List.iter
          (fun g ->
            diff pack ws g (Printf.sprintf "n=%d #%d" n !count);
            incr count)
          (Nf_enum.Unlabeled.connected_graphs n)
      done);
  check_bool (Printf.sprintf "%s: %d graphs diffed" (Game.name pack) !count) true (!count > 0)

let test_gallery pack () =
  Kernel.with_ws (fun ws ->
      List.iter
        (fun (name, g) -> if Graph.order g <= gallery_cap pack then diff pack ws g name)
        Nf_named.Gallery.all)

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
  let registry_cases =
    List.concat_map
      (fun pack ->
        let name = Game.name pack in
        [
          Alcotest.test_case (name ^ " exhaustive") `Quick (test_exhaustive pack);
          Alcotest.test_case (name ^ " gallery") `Quick (test_gallery pack);
        ])
      (Game_registry.ci_instances ())
  in
  Alcotest.run "nf_orbit"
    [
      ("differential", registry_cases);
      ( "memo",
        [
          Alcotest.test_case "lifecycle" `Quick test_memo_lifecycle;
          Alcotest.test_case "flag parity" `Quick test_flag_parity;
        ] );
    ]
