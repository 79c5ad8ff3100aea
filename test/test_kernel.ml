(* Tests for the zero-allocation batched distance kernel that need no
   oracle: the per-domain workspace borrow discipline, row loading, the
   allocation-free distance rows, the range messages past one word, and
   the coalition and game-table surfaces.  The kernel's sums,
   eccentricities, reach stats, toggle deltas and distance rows are held
   to the queue-BFS oracle, and the annotators built on the kernel to
   their game oracles, in test_differential.ml. *)

module Graph = Nf_graph.Graph
module Bfs = Nf_test_support.Bfs
module Apsp = Nf_graph.Apsp
module Kernel = Nf_graph.Kernel
module Random_graph = Nf_graph.Random_graph
module Bitset = Nf_util.Bitset
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Prng = Nf_util.Prng
open Netform

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let union = Alcotest.testable Interval.Union.pp Interval.Union.equal

(* the annotators' all-pairs case *)
let trivial g = Nf_iso.Symmetry.trivial (Graph.order g)

(* ---- coalition-k layering against the classic games (satellite) -------- *)

(* the exact collapse the family documents: k = 1 is the UCG Nash region
   wholesale, k = 2 reproduces the BCG interval threshold-for-threshold,
   and larger k only shrinks the set — over every connected class the
   sweeps enumerate at n ≤ 6 *)
let coalition_corpus () = List.concat_map Nf_enum.Unlabeled.connected_graphs [ 3; 4; 5; 6 ]

let alpha_grid =
  [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.make 5 2; Rat.of_int 4 ]

let test_coalition_instances_vs_classics () =
  let module K1 = (val Coalition.make ~k:1) in
  let module K2 = (val Coalition.make ~k:2) in
  let module K3 = (val Coalition.make ~k:3) in
  let module U = (val Game_registry.ucg) in
  Kernel.with_ws (fun ws ->
      List.iter
        (fun g ->
          check union "coalition:k=1 region = UCG region" (U.stable_region_ws ws (trivial g) g)
            (K1.stable_region_ws ws (trivial g) g);
          let k2 = K2.stable_region_ws ws (trivial g) g in
          check union "coalition:k=2 region = BCG interval"
            (Interval.Union.of_list [ Bcg.stable_alpha_set_sym_ws ws (trivial g) g ])
            k2;
          let k3 = K3.stable_region_ws ws (trivial g) g in
          List.iter
            (fun alpha ->
              if Interval.Union.mem alpha k3 then
                check_bool "k=3 stable point is k=2 stable" true (Interval.Union.mem alpha k2))
            alpha_grid)
        (coalition_corpus ()))

let test_coalition_registry_route () =
  let p = Game_registry.find_exn "coalition:k=2" in
  check Alcotest.string "canonical name" "coalition:k=2" (Game.name p);
  check_int "family schema tag" 5 (Game.schema_tag p);
  check_bool "repeated lookups share one instance" true
    (p == Game_registry.find_exn "coalition:k=2");
  check_bool "k=2 exposes the BCG's move generator" true (Game.has_moves p);
  (* k = 1 delegates to the UCG wholesale, whose dynamics are not
     graph-local — no move generator either *)
  check_bool "k=1 has no move generator" false
    (Game.has_moves (Game_registry.find_exn "coalition:k=1"))

(* ---- the game table's observable surface ------------------------------- *)

let head name = List.hd (String.split_on_char ':' name)
let names_of = List.map Game.name
let strings = Alcotest.(list string)

let resolves_to g tag params =
  match Game_registry.resolve_tag tag ~params with Some h -> h == g | None -> false

(* every listing in table order, every lookup outcome and message, the
   canonical-member identities, the store-tag round trip, and lookups
   from several domains at once *)
let test_registry_surface () =
  check strings "names" [ "bcg"; "ucg"; "transfers"; "weighted_bcg"; "adversary" ]
    (Game_registry.names ());
  check strings "all = names" (Game_registry.names ()) (names_of (Game_registry.all ()));
  check strings "ci instances"
    [ "bcg"; "ucg"; "transfers"; "weighted_bcg"; "adversary"; "coalition:k=2" ]
    (names_of (Game_registry.ci_instances ()));
  check
    Alcotest.(list (pair string int))
    "instance tags"
    [
      ("bcg", 0);
      ("ucg", 1);
      ("transfers", 2);
      ("weighted_bcg", 3);
      ("adversary", 4);
      ("coalition:k=2", 5);
    ]
    (List.map (fun g -> (Game.name g, Game.schema_tag g)) (Game_registry.ci_instances ()));
  check
    Alcotest.(list (list string))
    "family cards"
    [
      [ "adversary"; "4"; "adversary[:bridge]"; "adversary" ];
      [ "coalition"; "5"; "coalition:k=<1..8>"; "coalition:k=2" ];
    ]
    (List.map
       (fun (f : Game_registry.family_info) ->
         [ f.family; string_of_int f.schema_tag; f.grammar; f.example ])
       (Game_registry.families ()));
  (* every name and tag belongs to one row: instances that share a tag
     are members of the family holding it *)
  let cards = Game_registry.families () in
  let instances = Game_registry.ci_instances () in
  let distinct xs = List.length (List.sort_uniq compare xs) = List.length xs in
  check_bool "instance names distinct" true (distinct (names_of instances));
  check_bool "family names distinct" true
    (distinct (List.map (fun (f : Game_registry.family_info) -> f.family) cards));
  check_bool "family tags distinct" true
    (distinct (List.map (fun (f : Game_registry.family_info) -> f.schema_tag) cards));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b && Game.schema_tag a = Game.schema_tag b then
            Alcotest.failf "%s and %s share tag %d" (Game.name a) (Game.name b)
              (Game.schema_tag a))
        instances;
      List.iter
        (fun (f : Game_registry.family_info) ->
          if Game.schema_tag a = f.schema_tag && head (Game.name a) <> f.family then
            Alcotest.failf "%s has family %s's tag %d" (Game.name a) f.family f.schema_tag)
        cards)
    instances;
  (* lookups *)
  List.iter
    (fun g ->
      check_bool (Game.name g ^ " finds itself") true (Game_registry.find_exn (Game.name g) == g);
      check_bool
        (Game.name g ^ " tag round trip")
        true
        (resolves_to g (Game.schema_tag g) (Game.params g)))
    instances;
  check_bool "unknown name" true (Game_registry.find "nope" = None);
  check_bool "unknown head" true (Game_registry.find "bcg:x=1" = None);
  check_bool "unknown tag" true (Game_registry.resolve_tag 99 ~params:"" = None);
  check_bool "degenerate tag with params" true (Game_registry.resolve_tag 0 ~params:"x" = None);
  Alcotest.check_raises "unknown name lists the table"
    (Invalid_argument
       "unknown game \"nope\" (registered: bcg, ucg, transfers, weighted_bcg, adversary; \
        families: adversary[:bridge], coalition:k=<1..8>)")
    (fun () -> ignore (Game_registry.find_exn "nope"));
  List.iter
    (fun (name, message) ->
      Alcotest.check_raises name (Invalid_argument message) (fun () ->
          ignore (Game_registry.find name)))
    [
      ("coalition", "game family \"coalition\" needs parameters: coalition:k=<1..8> (e.g. \"coalition:k=2\")");
      ("coalition:k=9", "Coalition.make: k must be in 1..8 (got 9)");
      ("coalition:k=0", "Coalition.make: k must be in 1..8 (got 0)");
      ("coalition:k=x", "game family \"coalition\": k must be an integer (got \"x\")");
      ( "coalition:k=+0b1_0",
        "game family \"coalition\": k must be an integer (got \"+0b1_0\")" );
      ("coalition:k=0x2", "game family \"coalition\": k must be an integer (got \"0x2\")");
      ("coalition:k=2_", "game family \"coalition\": k must be an integer (got \"2_\")");
      ("coalition:j=2", "game family \"coalition\": expected k=<1..8>, got \"j=2\"");
      ("coalition:k=2,k=3", "game family \"coalition\": expected exactly k=<1..8>, got \"k=2,k=3\"");
      ( "adversary:foo",
        "game family \"adversary\" takes no parameters beyond the attack model \"bridge\" \
         (got \"foo\")" );
    ];
  Alcotest.check_raises "coalition tag without params"
    (Invalid_argument "game family \"coalition\": expected exactly k=<1..8>, got \"\"")
    (fun () -> ignore (Game_registry.resolve_tag 5 ~params:""));
  (* one instance per canonical member, whatever the spelling *)
  let same a b = Game_registry.find_exn a == Game_registry.find_exn b in
  check_bool "adversary:bridge == adversary" true (same "adversary:bridge" "adversary");
  check_bool "coalition:k=02 == coalition:k=2" true (same "coalition:k=02" "coalition:k=2");
  check_bool "tag 4 bridge == adversary" true
    (resolves_to (Game_registry.find_exn "adversary") 4 "bridge");
  List.iter
    (fun k ->
      let name = Printf.sprintf "coalition:k=%d" k in
      let g = Game_registry.find_exn name in
      check Alcotest.string "member name" name (Game.name g);
      check_int "member tag" 5 (Game.schema_tag g);
      check_bool (name ^ " tag round trip") true
        (resolves_to g 5 (Game.params g)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* four domains resolving at once get the calling domain's instances *)
  let coalition3 = Game_registry.find_exn "coalition:k=3"
  and adversary = Game_registry.find_exn "adversary" in
  let pool = Nf_util.Pool.create ~jobs:4 in
  let resolved =
    Fun.protect
      ~finally:(fun () -> Nf_util.Pool.shutdown pool)
      (fun () ->
        Nf_util.Pool.parallel_map ~pool
          (fun i ->
            ( Game_registry.find_exn (if i mod 2 = 0 then "coalition:k=3" else "coalition:k=03"),
              Game_registry.find_exn (if i mod 3 = 0 then "adversary" else "adversary:bridge") ))
          (List.init 64 Fun.id))
  in
  List.iter
    (fun (c, a) ->
      check_bool "concurrent coalition:k=3" true (c == coalition3);
      check_bool "concurrent adversary" true (a == adversary))
    resolved

(* ---------------- workspace borrow discipline ---------------- *)

let test_nested_borrow () =
  (* a nested with_ws must hand out a different workspace than the outer
     borrow, so kernel routines can call each other without trampling
     state *)
  Kernel.with_ws (fun outer ->
      Kernel.load outer (Nf_named.Families.cycle 5);
      let distinct = Kernel.with_ws (fun inner -> inner != outer) in
      check_bool "nested borrow gets a fresh workspace" true distinct;
      (* outer state survived the nested borrow *)
      check_int "outer untouched" 5 (Kernel.order outer));
  (* sequential borrows on one domain reuse the resident workspace *)
  let first = Kernel.with_ws (fun ws -> ws) in
  let second = Kernel.with_ws (fun ws -> ws) in
  check_bool "resident workspace is reused" true (first == second)

let test_load_rows () =
  let ws = Kernel.create () in
  (* rows with out-of-range bits and self-loops must be masked off *)
  Kernel.load_rows ws 3 (fun v ->
      Bitset.of_list (match v with 0 -> [ 0; 1; 5 ] | 1 -> [ 0; 2 ] | _ -> [ 1; 60 ]));
  check_bool "edge 0-1" true (Kernel.has_edge ws 0 1);
  check_bool "edge 1-2" true (Kernel.has_edge ws 1 2);
  check_bool "self loop stripped" false (Kernel.has_edge ws 0 0);
  check_bool "out of range stripped" false (Kernel.has_edge ws 0 5 || Kernel.has_edge ws 2 60);
  check_int "path sum" 3 (Kernel.distance_sum_from ws 0)

(* once the slab exists, a distance row costs no allocation *)
let test_rows_allocate_nothing () =
  Kernel.with_loaded (Random_graph.gnp (Prng.create 9) 130 0.05) (fun ws ->
      ignore (Kernel.distances_from ws 0);
      let before = Gc.minor_words () in
      for v = 0 to 129 do
        ignore (Kernel.distances_from ws v)
      done;
      check_bool "rows allocate nothing" true (Gc.minor_words () -. before < 16.0))

(* ---------------- multi-word rows (n > 62) ---------------- *)

let test_multiword_range_messages () =
  let ws = Kernel.create () in
  Alcotest.check_raises "load_rows past one word"
    (Invalid_argument
       "Kernel.load_rows: order 63 outside 0..62 (one-word rows; use load_edges \
        beyond 62 vertices)")
    (fun () -> Kernel.load_rows ws 63 (fun _ -> Bitset.empty));
  Kernel.load ws (Graph.empty 70);
  Alcotest.check_raises "neighbors past one word"
    (Invalid_argument
       "Kernel.neighbors: order 70 > 62 needs multi-word rows; use has_edge or \
        iter_neighbors")
    (fun () -> ignore (Kernel.neighbors ws 0));
  Alcotest.check_raises "Bfs.distance out of range"
    (Invalid_argument "Bfs.distance: vertex out of range")
    (fun () -> ignore (Bfs.distance (Graph.empty 3) 0 3));
  Alcotest.check_raises "Bfs.reachable past one word"
    (Invalid_argument "Bfs.reachable: order 70 > 62 (one-word bitset result; use reachable_words)")
    (fun () -> ignore (Bfs.reachable (Graph.empty 70) 0));
  Alcotest.check_raises "Graph.neighbors past one word"
    (Invalid_argument
       "Graph.neighbors: order 70 > 62 needs multi-word rows; use iter_neighbors or \
        row_word")
    (fun () -> ignore (Graph.neighbors (Graph.empty 70) 0))

(* QCheck: random boundary-order gnp graphs, kernel vs Apsp persistent path *)
let prop_multiword_apsp_parity =
  QCheck.Test.make ~name:"kernel sums = Apsp.distance_sums at 60 <= n <= 140" ~count:40
    QCheck.(pair (int_range 60 140) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Prng.create (seed + (n * 100003)) in
      let g = Random_graph.gnp rng n (1.5 /. float_of_int n) in
      let apsp = Apsp.distance_sums g in
      Kernel.with_loaded g (fun ws ->
          let sums = Kernel.all_distance_sums ws in
          let ok = ref true in
          for v = 0 to n - 1 do
            if Kernel.to_ext sums.(v) <> apsp.(v) then ok := false
          done;
          !ok))

let () =
  Alcotest.run "nf_kernel"
    [
      ( "workspace",
        [
          Alcotest.test_case "nested borrow" `Quick test_nested_borrow;
          Alcotest.test_case "load rows" `Quick test_load_rows;
          Alcotest.test_case "rows allocate nothing" `Quick test_rows_allocate_nothing;
        ] );
      ( "multiword",
        [
          Alcotest.test_case "range messages" `Quick test_multiword_range_messages;
          QCheck_alcotest.to_alcotest prop_multiword_apsp_parity;
        ] );
      ( "coalition layering",
        [
          Alcotest.test_case "instances vs classics" `Quick
            test_coalition_instances_vs_classics;
          Alcotest.test_case "registry route" `Quick test_coalition_registry_route;
        ] );
      ( "registry game table",
        [ Alcotest.test_case "observable surface" `Quick test_registry_surface ] );
    ]
