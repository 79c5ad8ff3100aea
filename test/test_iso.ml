(* Tests for nf_iso: refinement, canonical labeling, isomorphism,
   automorphism counting, AHU tree encoding. *)

open Nf_iso
module Graph = Nf_graph.Graph
module Prng = Nf_util.Prng
module Random_graph = Nf_graph.Random_graph

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let graph = Alcotest.testable Graph.pp Graph.equal

let path n = Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))
let cycle n = Graph.add_edge (path n) 0 (n - 1)
let star n = Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

let complete n =
  let g = ref (Graph.empty n) in
  Nf_util.Subset.iter_pairs n (fun i j -> g := Graph.add_edge !g i j);
  !g

let petersen =
  Graph.of_edges 10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    ]

let random_relabel rng g =
  let n = Graph.order g in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  Graph.relabel g perm

(* ---------------- Refine ---------------- *)

let test_degree_partition () =
  let p = Refine.degree_partition (star 5) in
  check_int "two cells" 2 (List.length p);
  check (Alcotest.list (Alcotest.list Alcotest.int)) "center first" [ [ 0 ]; [ 1; 2; 3; 4 ] ] p

let test_refine_path () =
  (* Path on 4: degree split {1,1},{2,2}; refinement cannot split further
     (each end vertex sees one degree-2 vertex, each middle sees one end and
     one middle). *)
  let p = Refine.refine (path 4) (Refine.degree_partition (path 4)) in
  check_int "cells" 2 (List.length p);
  (* Path on 5: middle vertex separates from the other two degree-2s. *)
  let p5 = Refine.refine (path 5) (Refine.degree_partition (path 5)) in
  check_int "cells on p5" 3 (List.length p5)

let test_refine_regular_no_split () =
  let p = Refine.refine (cycle 6) (Refine.unit_partition 6) in
  check_int "cycle stays one cell" 1 (List.length p)

let test_individualize () =
  let p = [ [ 0 ]; [ 1; 2; 3 ] ] in
  let p' = Refine.individualize p ~cell:(List.nth p 1) 2 in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "split out" [ [ 0 ]; [ 2 ]; [ 1; 3 ] ] p';
  check_bool "discrete" true (Refine.is_discrete [ [ 1 ]; [ 0 ] ]);
  check_bool "not discrete" false (Refine.is_discrete p)

(* Reference refinement: the original list implementation, kept as the
   oracle for the array-backed [Refine].  Cells split by neighbour count
   inside each splitter, groups ordered by (count descending, vertex
   ascending); a round snapshots one splitter per cell and applies them in
   order to the evolving partition.  The array code must agree exactly,
   cell order and order inside cells included. *)
module Oracle = struct
  module Bitset = Nf_util.Bitset

  let degree_partition g =
    let n = Graph.order g in
    let by_degree = Hashtbl.create 8 in
    for v = 0 to n - 1 do
      let d = Graph.degree g v in
      Hashtbl.replace by_degree d
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_degree d))
    done;
    let degrees =
      List.sort_uniq (fun a b -> compare b a) (Hashtbl.fold (fun d _ acc -> d :: acc) by_degree [])
    in
    List.map (fun d -> List.sort compare (Hashtbl.find by_degree d)) degrees

  let split_by g splitter partition =
    let changed = ref false in
    let split_cell cell =
      match cell with
      | [] | [ _ ] -> [ cell ]
      | _ ->
        let keyed =
          List.map (fun v -> (Bitset.cardinal (Bitset.inter (Graph.neighbors g v) splitter), v)) cell
        in
        let sorted = List.sort (fun (k1, v1) (k2, v2) -> compare (k2, v1) (k1, v2)) keyed in
        let rec group current key acc = function
          | [] -> List.rev (List.rev current :: acc)
          | (k, v) :: rest ->
            if k = key then group (v :: current) key acc rest
            else group [ v ] k (List.rev current :: acc) rest
        in
        (match sorted with
        | [] -> [ [] ]
        | (k0, v0) :: rest ->
          let groups = group [ v0 ] k0 [] rest in
          if List.length groups > 1 then changed := true;
          groups)
    in
    let refined = List.concat_map split_cell partition in
    (refined, !changed)

  let refine g partition =
    let rec loop partition =
      let splitters = List.map Bitset.of_list partition in
      let step (p, changed) splitter =
        let p', c = split_by g splitter p in
        (p', changed || c)
      in
      let partition', changed = List.fold_left step (partition, false) splitters in
      if changed then loop partition' else partition'
    in
    loop partition
end

let partition_t = Alcotest.(list (list int))

let test_refine_one_word_limit () =
  Alcotest.check_raises "63 vertices rejected"
    (Invalid_argument "Refine.refine: order 63 exceeds the one-word limit") (fun () ->
      ignore (Refine.refine (path 63) (Refine.degree_partition (path 63))))

let check_refine_matches_oracle g seed =
  check partition_t
    (Printf.sprintf "refine %s from %s" (Nf_graph.Graph6.encode g)
       (String.concat "|" (List.map (fun c -> String.concat "," (List.map string_of_int c)) seed)))
    (Oracle.refine g seed) (Refine.refine g seed)

let test_refine_oracle_small () =
  (* every class with n <= 7, under its own labels and one random
     relabeling, from three kinds of seed *)
  let rng = Prng.create 7 in
  for n = 0 to 7 do
    List.iter
      (fun rep ->
        List.iter
          (fun g ->
            let degrees = Refine.degree_partition g in
            check partition_t "degree partition" (Oracle.degree_partition g) degrees;
            check_refine_matches_oracle g degrees;
            check_refine_matches_oracle g (Refine.unit_partition n);
            let refined = Oracle.refine g degrees in
            List.iter
              (fun cell ->
                List.iter
                  (fun v -> check_refine_matches_oracle g (Refine.individualize refined ~cell v))
                  cell)
              refined)
          [ rep; random_relabel rng rep ])
      (Nf_enum.Unlabeled.all_graphs n)
  done

(* a random ordered partition: shuffled vertices cut at random points,
   with the occasional empty cell, which refinement must carry through in
   place *)
let random_partition rng n =
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  let cells = ref [] in
  let cell = ref [] in
  Array.iteri
    (fun i v ->
      cell := v :: !cell;
      if i = n - 1 || Prng.int rng 3 = 0 then begin
        cells := !cell :: !cells;
        cell := [];
        if Prng.int rng 10 = 0 then cells := [] :: !cells
      end)
    order;
  List.rev !cells

let test_refine_oracle_random () =
  let rng = Prng.create 2005 in
  for _ = 1 to 400 do
    let n = 8 + Prng.int rng 9 in
    let g = Random_graph.gnp rng n (Prng.float rng 1.0) in
    check partition_t "degree partition" (Oracle.degree_partition g) (Refine.degree_partition g);
    check_refine_matches_oracle g (Refine.degree_partition g);
    check_refine_matches_oracle g (random_partition rng n)
  done

(* ---------------- Canon ---------------- *)

let test_canonical_invariance () =
  let rng = Prng.create 31 in
  let fixtures = [ path 6; cycle 7; star 8; petersen; complete 5 ] in
  List.iter
    (fun g ->
      let expected = Canon.canonical_form g in
      for _ = 1 to 10 do
        let h = random_relabel rng g in
        check graph "same canonical form" expected (Canon.canonical_form h)
      done)
    fixtures

let test_non_isomorphic_distinguished () =
  (* same degree sequence, not isomorphic: C6 vs two triangles *)
  let c6 = cycle 6 in
  let two_triangles = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  check_bool "distinguished" false (Canon.is_isomorphic c6 two_triangles);
  (* K_{3,3} vs prism: both 3-regular on 6 vertices *)
  let k33 = Graph.of_edges 6 [ (0, 3); (0, 4); (0, 5); (1, 3); (1, 4); (1, 5); (2, 3); (2, 4); (2, 5) ] in
  let prism = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3); (1, 4); (2, 5) ] in
  check_bool "k33 vs prism" false (Canon.is_isomorphic k33 prism);
  check_bool "prism vs prism relabeled" true
    (Canon.is_isomorphic prism (random_relabel (Prng.create 4) prism))

let test_isomorphism_witness () =
  let rng = Prng.create 77 in
  for _ = 1 to 50 do
    let g = Random_graph.gnp rng (3 + Prng.int rng 8) 0.5 in
    let h = random_relabel rng g in
    match Canon.isomorphism g h with
    | None -> Alcotest.fail "isomorphic graphs not matched"
    | Some perm -> check graph "witness maps g to h" h (Graph.relabel g perm)
  done

let test_isomorphism_none () =
  check_bool "different sizes" true (Canon.isomorphism (path 4) (cycle 4) = None);
  check_bool "different orders" true (Canon.isomorphism (path 4) (path 5) = None)

let test_automorphism_counts () =
  check_int "path 4: 2" 2 (Canon.automorphism_count (path 4));
  check_int "cycle 5: dihedral 10" 10 (Canon.automorphism_count (cycle 5));
  check_int "star 5: 4! = 24" 24 (Canon.automorphism_count (star 5));
  check_int "K4: 24" 24 (Canon.automorphism_count (complete 4));
  check_int "K5: 120" 120 (Canon.automorphism_count (complete 5));
  check_int "petersen: 120" 120 (Canon.automorphism_count petersen);
  check_int "empty graph on 0: 1" 1 (Canon.automorphism_count (Graph.empty 0));
  (* spider at vertex 2 with legs of lengths 1, 2 and 3: no symmetry *)
  check_int "asymmetric tree" 1
    (Canon.automorphism_count
       (Graph.of_edges 7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (2, 6) ]))

let test_canonical_complete_fast () =
  (* The orbit pruning must tame the n! blowup on vertex-transitive
     graphs; a K9 canonical form should be instant. *)
  let g = complete 9 in
  check graph "K9 canonical is itself" g (Canon.canonical_form g)

let test_canonical_key_matches_form () =
  let g = petersen in
  check Alcotest.string "key = graph6 of form"
    (Nf_graph.Graph6.encode (Canon.canonical_form g))
    (Canon.canonical_key g)

(* ---------------- Canon.full: automorphism generators ---------------- *)

let is_automorphism g gen =
  let n = Graph.order g in
  Array.length gen = n
  && List.sort_uniq compare (Array.to_list gen) = List.init n Fun.id
  && (let ok = ref true in
      Nf_util.Subset.iter_pairs n (fun i j ->
          if Graph.has_edge g i j <> Graph.has_edge g gen.(i) gen.(j) then ok := false);
      !ok)

(* close the generator set under composition (BFS on the Cayley graph); the
   groups under test are small, so the full element list is affordable *)
let group_closure n generators =
  let key p = String.init n (fun i -> Char.chr p.(i)) in
  let seen = Hashtbl.create 64 in
  let identity = Array.init n Fun.id in
  Hashtbl.add seen (key identity) identity;
  let queue = Queue.create () in
  Queue.add identity queue;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    List.iter
      (fun gen ->
        let q = Array.init n (fun v -> gen.(p.(v))) in
        let k = key q in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k q;
          Queue.add q queue
        end)
      generators
  done;
  Hashtbl.fold (fun _ p acc -> p :: acc) seen []

let full_fixtures () =
  let module Unlabeled = Nf_enum.Unlabeled in
  List.concat_map Unlabeled.all_graphs [ 3; 4; 5 ]
  @ [ petersen; cycle 6; star 7; complete 6; path 7 ]

let test_full_matches_canonical () =
  List.iter
    (fun g ->
      let f = Canon.full g in
      check graph "form = canonical_form" (Canon.canonical_form g) f.Canon.form;
      check graph "perm realizes form" f.Canon.form (Graph.relabel g f.Canon.perm))
    (full_fixtures ())

let test_full_generators_are_automorphisms () =
  List.iter
    (fun g ->
      List.iter
        (fun gen ->
          check_bool "generator preserves adjacency" true (is_automorphism g gen))
        (Canon.full g).Canon.generators)
    (full_fixtures ())

let test_full_generators_complete () =
  (* the exposed generators must generate the FULL automorphism group:
     closure order = backtracking count, and the union-find orbits must
     match the closure's orbit partition exactly.  Canonical augmentation
     is sound only under both. *)
  List.iter
    (fun g ->
      let n = Graph.order g in
      let f = Canon.full g in
      let closure = group_closure n f.Canon.generators in
      check_int "closure order = automorphism count"
        (Canon.automorphism_count g) (List.length closure);
      let same_orbit u v = List.exists (fun p -> p.(u) = v) closure in
      Nf_util.Subset.iter_pairs n (fun u v ->
          check_bool "orbit partition matches closure"
            (same_orbit u v)
            (f.Canon.orbits.(u) = f.Canon.orbits.(v)));
      (* orbit–stabilizer: |orbit(v)| * |Stab(v)| = |Aut| for every vertex *)
      for v = 0 to n - 1 do
        let orbit_size =
          let c = ref 0 in
          Array.iter (fun r -> if r = f.Canon.orbits.(v) then incr c) f.Canon.orbits;
          !c
        in
        let stab_size = List.length (List.filter (fun p -> p.(v) = v) closure) in
        check_int "orbit-stabilizer identity"
          (List.length closure) (orbit_size * stab_size)
      done)
    (full_fixtures ())

let test_orbits_of_generators_basic () =
  (* one 3-cycle and a fixed point *)
  let orbits = Canon.orbits_of_generators 4 [ [| 1; 2; 0; 3 |] ] in
  check_bool "0~1" true (orbits.(0) = orbits.(1));
  check_bool "1~2" true (orbits.(1) = orbits.(2));
  check_bool "3 fixed" false (orbits.(3) = orbits.(0));
  let trivial = Canon.orbits_of_generators 3 [] in
  check_int "no generators: all singletons" 3
    (List.length (List.sort_uniq compare (Array.to_list trivial)))

(* ---------------- Symmetry: edge orbits for the quotient ---------------- *)

(* orbit sizes as a sorted list, independent of which pair represents each
   orbit *)
let orbit_sizes (eo : Symmetry.edge_orbits) =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun r -> Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    eo.Symmetry.orbit_of_pair;
  List.sort compare (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])

let test_edge_orbits_complete () =
  (* K_n: every pair is an edge and Aut = S_n acts transitively on pairs —
     one orbit, found by both detection tiers *)
  List.iter
    (fun n ->
      let g = complete n in
      List.iter
        (fun sym ->
          let eo = Symmetry.edge_orbits sym in
          check_int "K_n: one orbit" 1 (Array.length eo.Symmetry.reps);
          check (Alcotest.list Alcotest.int) "K_n: orbit covers all pairs"
            [ n * (n - 1) / 2 ] (orbit_sizes eo))
        [ Symmetry.detect_full g; Symmetry.detect_twins g ])
    [ 4; 5; 6; 7 ]

let test_edge_orbits_cycle () =
  (* C_n under the dihedral group: pairs are classified by their cycle
     distance 1..⌊n/2⌋ *)
  List.iter
    (fun n ->
      let eo = Symmetry.edge_orbits (Symmetry.detect_full (cycle n)) in
      check_int "C_n: floor(n/2) orbits" (n / 2) (Array.length eo.Symmetry.reps))
    [ 4; 5; 6; 7; 8 ]

let test_edge_orbits_petersen () =
  (* edge-transitive and co-edge-transitive: the 15 edges form one orbit and
     the 30 non-edges the other *)
  let sym = Symmetry.detect_full petersen in
  let eo = Symmetry.edge_orbits sym in
  check_int "petersen: two orbits" 2 (Array.length eo.Symmetry.reps);
  check (Alcotest.list Alcotest.int) "petersen: orbit sizes" [ 15; 30 ] (orbit_sizes eo);
  (* the size-15 orbit is the edge orbit *)
  Array.iter
    (fun r ->
      let size = Array.fold_left (fun acc o -> if o = r then acc + 1 else acc) 0
          eo.Symmetry.orbit_of_pair in
      let j = ref 1 in
      while (!j * (!j - 1)) / 2 + !j <= r do incr j done;
      let i = r - (!j * (!j - 1)) / 2 in
      check_bool "size 15 iff edge" (size = 15) (Graph.has_edge petersen i !j))
    eo.Symmetry.reps

let test_edge_orbits_hypercube () =
  (* Q_3: pairs split by Hamming distance — 12 edges, 12 face diagonals,
     4 antipodal pairs *)
  let q3 = Nf_named.Families.hypercube 3 in
  let eo = Symmetry.edge_orbits (Symmetry.detect_full q3) in
  check_int "Q3: three orbits" 3 (Array.length eo.Symmetry.reps);
  check (Alcotest.list Alcotest.int) "Q3: orbit sizes" [ 4; 12; 12 ] (orbit_sizes eo)

let test_edge_orbits_rigid () =
  (* asymmetric spider: trivial group, every pair its own orbit — the rigid
     fast path's precondition *)
  let spider = Graph.of_edges 7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (2, 6) ] in
  List.iter
    (fun sym ->
      check_bool "spider: trivial subgroup" true (Symmetry.is_trivial sym);
      let eo = Symmetry.edge_orbits sym in
      check_int "spider: all pairs are reps" 21 (Array.length eo.Symmetry.reps);
      Array.iteri
        (fun t r -> check_int "spider: orbit_of_pair is the identity" t r)
        eo.Symmetry.orbit_of_pair)
    [ Symmetry.detect_full spider; Symmetry.detect_twins spider ]

let test_twin_partition_star () =
  (* star 5: the four leaves are twins; classes/second drive the O(1)
     representative test used by the class scans *)
  let sym = Symmetry.detect_twins (star 5) in
  (match Symmetry.twin_partition sym with
  | None -> Alcotest.fail "star: twin witness expected"
  | Some (classes, second) ->
    check (Alcotest.array Alcotest.int) "star: leaf class" [| 0; 1; 1; 1; 1 |] classes;
    check_int "star: second leaf" 2 second.(1));
  let eo = Symmetry.edge_orbits sym in
  check (Alcotest.list Alcotest.int) "star: spokes and leaf pairs" [ 4; 6 ] (orbit_sizes eo);
  (* the twin subgroup here is the full group: same partition *)
  check (Alcotest.list Alcotest.int) "star: twins match full group" [ 4; 6 ]
    (orbit_sizes (Symmetry.edge_orbits (Symmetry.detect_full (star 5))))

let test_symmetry_self_check_gallery () =
  (* orbit-stabilizer armor on the named gallery (plus twin-rich families),
     for both detection tiers, against the independent backtracking counter *)
  let fixtures =
    List.filter (fun (_, g) -> Graph.order g <= 30) Nf_named.Gallery.all
    @ [
        ("k6", complete 6);
        ("k34", Nf_named.Families.complete_bipartite 3 4);
        ("wheel6", Nf_named.Families.wheel 6);
        ("star7", star 7);
      ]
  in
  List.iter
    (fun (name, g) ->
      Symmetry.self_check g (Symmetry.detect_full g);
      Symmetry.self_check g (Symmetry.detect_twins g);
      check_bool (name ^ ": checked") true true)
    fixtures

let test_generators_match_twin_witness () =
  (* materialized star transpositions must generate exactly the witnessed
     product of class-symmetric groups: closure order = ∏ |class|! *)
  let fixtures = [ star 6; complete 5; Nf_named.Families.complete_bipartite 2 3 ] in
  List.iter
    (fun g ->
      let sym = Symmetry.detect_twins g in
      match Symmetry.twin_partition sym with
      | None -> Alcotest.fail "twin witness expected"
      | Some (classes, _) ->
        let n = Graph.order g in
        let fact k = let r = ref 1 in for i = 2 to k do r := !r * i done; !r in
        let expected = ref 1 in
        for c = 0 to n - 1 do
          let size = Array.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 classes in
          if size > 0 then expected := !expected * fact size
        done;
        check_int "closure order = product of class factorials" !expected
          (List.length (group_closure n (Symmetry.generators sym))))
    fixtures

let prop_twin_orbits_refine_full =
  (* soundness of the cheap tier on random graphs: every twin-orbit lies
     inside one full-group orbit, and self_check holds *)
  QCheck.Test.make ~name:"twin orbits refine full orbits" ~count:120
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" s n p)
       QCheck.Gen.(triple (int_bound 100000) (int_range 2 9) (float_range 0.0 1.0)))
    (fun (seed, n, p) ->
      let rng = Prng.create seed in
      let g = Random_graph.gnp rng n p in
      let twins = Symmetry.detect_twins g in
      let full = Symmetry.detect_full g in
      Symmetry.self_check g twins;
      Symmetry.self_check g full;
      let et = (Symmetry.edge_orbits twins).Symmetry.orbit_of_pair in
      let ef = (Symmetry.edge_orbits full).Symmetry.orbit_of_pair in
      let ok = ref true in
      Array.iteri (fun t r -> if ef.(t) <> ef.(r) then ok := false) et;
      !ok)

(* ---------------- AHU ---------------- *)

let test_centers () =
  check (Alcotest.list Alcotest.int) "path 5 center" [ 2 ] (Ahu.centers (path 5));
  check (Alcotest.list Alcotest.int) "path 4 centers" [ 1; 2 ] (Ahu.centers (path 4));
  check (Alcotest.list Alcotest.int) "star center" [ 0 ] (Ahu.centers (star 7));
  check (Alcotest.list Alcotest.int) "single" [ 0 ] (Ahu.centers (Graph.empty 1));
  check (Alcotest.list Alcotest.int) "k2" [ 0; 1 ] (Ahu.centers (complete 2))

let test_ahu_iso_trees () =
  let rng = Prng.create 13 in
  for _ = 1 to 100 do
    let t = Random_graph.tree rng (2 + Prng.int rng 12) in
    let t' = random_relabel rng t in
    check_bool "relabel same encoding" true (Ahu.equal_trees t t')
  done

let test_ahu_distinguishes () =
  (* two non-isomorphic trees on 5 vertices: path vs star vs chair *)
  let chair = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (2, 4) ] in
  check_bool "path vs star" false (Ahu.equal_trees (path 5) (star 5));
  check_bool "path vs chair" false (Ahu.equal_trees (path 5) chair);
  check_bool "star vs chair" false (Ahu.equal_trees (star 5) chair)

let test_ahu_agrees_with_canon () =
  let rng = Prng.create 21 in
  for _ = 1 to 100 do
    let t1 = Random_graph.tree rng (2 + Prng.int rng 9) in
    let t2 = Random_graph.tree rng (Graph.order t1) in
    check_bool "ahu agrees with canon"
      (Canon.is_isomorphic t1 t2) (Ahu.equal_trees t1 t2)
  done

let test_ahu_rejects_non_tree () =
  Alcotest.check_raises "cycle rejected" (Invalid_argument "Ahu.encode: not a tree")
    (fun () -> ignore (Ahu.encode (cycle 4)))

(* property: canonical form invariant under random relabeling *)

let prop_canonical_invariant =
  QCheck.Test.make ~name:"canonical form relabel-invariant" ~count:150
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" s n p)
       QCheck.Gen.(triple (int_bound 100000) (int_range 1 9) (float_range 0.0 1.0)))
    (fun (seed, n, p) ->
      let rng = Prng.create seed in
      let g = Random_graph.gnp rng n p in
      let h = random_relabel rng g in
      Graph.equal (Canon.canonical_form g) (Canon.canonical_form h))

let prop_canonical_is_isomorphic =
  QCheck.Test.make ~name:"canonical form is isomorphic to input" ~count:150
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" s n p)
       QCheck.Gen.(triple (int_bound 100000) (int_range 1 9) (float_range 0.0 1.0)))
    (fun (seed, n, p) ->
      let rng = Prng.create seed in
      let g = Random_graph.gnp rng n p in
      let c = Canon.canonical_form g in
      Graph.order c = Graph.order g
      && Graph.size c = Graph.size g
      && Canon.is_isomorphic c g)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_iso"
    [
      ( "refine",
        [
          Alcotest.test_case "degree partition" `Quick test_degree_partition;
          Alcotest.test_case "refine path" `Quick test_refine_path;
          Alcotest.test_case "regular no split" `Quick test_refine_regular_no_split;
          Alcotest.test_case "individualize" `Quick test_individualize;
          Alcotest.test_case "oracle n <= 7" `Quick test_refine_oracle_small;
          Alcotest.test_case "oracle random 8..16" `Quick test_refine_oracle_random;
          Alcotest.test_case "one-word limit" `Quick test_refine_one_word_limit;
        ] );
      ( "canon",
        [
          Alcotest.test_case "invariance" `Quick test_canonical_invariance;
          Alcotest.test_case "distinguishes" `Quick test_non_isomorphic_distinguished;
          Alcotest.test_case "witness" `Quick test_isomorphism_witness;
          Alcotest.test_case "no witness" `Quick test_isomorphism_none;
          Alcotest.test_case "automorphism counts" `Quick test_automorphism_counts;
          Alcotest.test_case "complete graph fast" `Quick test_canonical_complete_fast;
          Alcotest.test_case "key consistency" `Quick test_canonical_key_matches_form;
        ] );
      ( "canon-full",
        [
          Alcotest.test_case "matches canonical" `Quick test_full_matches_canonical;
          Alcotest.test_case "generators sound" `Quick test_full_generators_are_automorphisms;
          Alcotest.test_case "generators complete" `Quick test_full_generators_complete;
          Alcotest.test_case "orbits basic" `Quick test_orbits_of_generators_basic;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "complete" `Quick test_edge_orbits_complete;
          Alcotest.test_case "cycle" `Quick test_edge_orbits_cycle;
          Alcotest.test_case "petersen" `Quick test_edge_orbits_petersen;
          Alcotest.test_case "hypercube" `Quick test_edge_orbits_hypercube;
          Alcotest.test_case "rigid" `Quick test_edge_orbits_rigid;
          Alcotest.test_case "twin partition" `Quick test_twin_partition_star;
          Alcotest.test_case "self-check gallery" `Quick test_symmetry_self_check_gallery;
          Alcotest.test_case "twin generators" `Quick test_generators_match_twin_witness;
        ] );
      ( "ahu",
        [
          Alcotest.test_case "centers" `Quick test_centers;
          Alcotest.test_case "relabel invariance" `Quick test_ahu_iso_trees;
          Alcotest.test_case "distinguishes" `Quick test_ahu_distinguishes;
          Alcotest.test_case "agrees with canon" `Quick test_ahu_agrees_with_canon;
          Alcotest.test_case "rejects non-tree" `Quick test_ahu_rejects_non_tree;
        ] );
      ( "properties",
        [
          qcheck prop_canonical_invariant;
          qcheck prop_canonical_is_isomorphic;
          qcheck prop_twin_orbits_refine_full;
        ] );
    ]
