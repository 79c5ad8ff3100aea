(* Tests for nf_graph: graph kernel, BFS/APSP, connectivity, girth,
   structural predicates, graph6, Prüfer, random models. *)

open Nf_graph
module Bfs = Nf_test_support.Bfs
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int
module Prng = Nf_util.Prng

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ext = Alcotest.testable Ext_int.pp Ext_int.equal
let graph = Alcotest.testable Graph.pp Graph.equal

(* small fixtures *)
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

(* ---------------- Graph kernel ---------------- *)

let test_empty () =
  let g = Graph.empty 5 in
  check_int "order" 5 (Graph.order g);
  check_int "size" 0 (Graph.size g);
  check_bool "no edge" false (Graph.has_edge g 0 1);
  check_bool "is empty graph" true (Graph.is_empty_graph g)

let test_add_remove () =
  let g = Graph.add_edge (Graph.empty 4) 1 3 in
  check_bool "edge present" true (Graph.has_edge g 1 3);
  check_bool "symmetric" true (Graph.has_edge g 3 1);
  check_int "size" 1 (Graph.size g);
  let g2 = Graph.add_edge g 1 3 in
  check_int "idempotent add" 1 (Graph.size g2);
  let g3 = Graph.remove_edge g2 3 1 in
  check_int "removed" 0 (Graph.size g3);
  (* persistence: the original is untouched *)
  check_int "persistent" 1 (Graph.size g2);
  Alcotest.check_raises "loop rejected" (Invalid_argument "Graph.add_edge: loop")
    (fun () -> ignore (Graph.add_edge g 2 2))

let test_toggle () =
  let g = Graph.empty 3 in
  let g1 = Graph.toggle_edge g 0 1 in
  check_bool "toggled on" true (Graph.has_edge g1 0 1);
  let g2 = Graph.toggle_edge g1 0 1 in
  check_bool "toggled off" false (Graph.has_edge g2 0 1)

let test_edges_listing () =
  let g = Graph.of_edges 4 [ (2, 1); (0, 3); (0, 1) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted i<j edges"
    [ (0, 1); (0, 3); (1, 2) ]
    (Graph.edges g);
  check_int "non-edges count" 3 (List.length (Graph.non_edges g));
  check_int "degree 0" 2 (Graph.degree g 0);
  check (Alcotest.list Alcotest.int) "neighbors" [ 1; 3 ]
    (Bitset.elements (Graph.neighbors g 0))

let test_complement () =
  let g = path 4 in
  let c = Graph.complement g in
  check_int "complement size" 3 (Graph.size c);
  check_bool "0-1 gone" false (Graph.has_edge c 0 1);
  check_bool "0-2 present" true (Graph.has_edge c 0 2);
  check graph "double complement" g (Graph.complement c)

let test_add_vertex () =
  let g = Graph.add_vertex (path 3) (Bitset.of_list [ 0; 2 ]) in
  check_int "order" 4 (Graph.order g);
  check_bool "new edges" true (Graph.has_edge g 3 0 && Graph.has_edge g 3 2);
  check_bool "old preserved" true (Graph.has_edge g 0 1 && Graph.has_edge g 1 2)

let test_relabel () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.relabel g [| 2; 0; 1 |] in
  check_bool "mapped edge" true (Graph.has_edge h 2 0);
  check_int "size preserved" 1 (Graph.size h)

let test_induced () =
  let g = cycle 5 in
  let sub = Graph.induced g [ 0; 1; 2 ] in
  check_int "induced order" 3 (Graph.order sub);
  check_int "induced size" 2 (Graph.size sub)

let test_union () =
  let a = Graph.of_edges 4 [ (0, 1) ]
  and b = Graph.of_edges 4 [ (1, 2) ] in
  check_int "union size" 2 (Graph.size (Graph.union a b))

(* ---------------- BFS / APSP ---------------- *)

let test_bfs_path () =
  let g = path 5 in
  let d = Bfs.distances g 0 in
  check (Alcotest.array Alcotest.int) "path distances" [| 0; 1; 2; 3; 4 |] d;
  check ext "distance sum" (Ext_int.Fin 10) (Bfs.distance_sum g 0);
  check ext "middle sum" (Ext_int.Fin 6) (Bfs.distance_sum g 2);
  check ext "eccentricity" (Ext_int.Fin 4) (Bfs.eccentricity g 0)

let test_bfs_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check ext "inf sum" Ext_int.Inf (Bfs.distance_sum g 0);
  check ext "inf distance" Ext_int.Inf (Bfs.distance g 0 2);
  check (Alcotest.list Alcotest.int) "reachable" [ 0; 1 ]
    (Bitset.elements (Bfs.reachable g 0))

let test_apsp_petersen () =
  (* The Petersen graph: diameter 2, girth 5, 3-regular, distance sum per
     vertex = 3*1 + 6*2 = 15. *)
  check ext "diameter" (Ext_int.Fin 2) (Apsp.diameter petersen);
  check ext "radius" (Ext_int.Fin 2) (Apsp.radius petersen);
  check ext "wiener" (Ext_int.Fin 150) (Apsp.wiener petersen);
  check ext "girth" (Ext_int.Fin 5) (Girth.girth petersen)

let test_apsp_star () =
  let g = star 6 in
  check ext "diameter" (Ext_int.Fin 2) (Apsp.diameter g);
  check ext "radius" (Ext_int.Fin 1) (Apsp.radius g);
  (* star on n: 2(n-1) center pairs at 1 + (n-1)(n-2) leaf pairs at 2 *)
  check ext "wiener" (Ext_int.Fin (10 + 40)) (Apsp.wiener g)

let test_average_distance () =
  check (Alcotest.float 1e-9) "complete avg" 1.0 (Apsp.average_distance (complete 5));
  check_bool "disconnected avg" true
    (Apsp.average_distance (Graph.of_edges 3 [ (0, 1) ]) = infinity)

(* ---------------- Connectivity ---------------- *)

let test_connected () =
  check_bool "path connected" true (Connectivity.is_connected (path 6));
  check_bool "empty graph on 3" false (Connectivity.is_connected (Graph.empty 3));
  check_bool "order zero" true (Connectivity.is_connected (Graph.empty 0));
  check_bool "single vertex" true (Connectivity.is_connected (Graph.empty 1))

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  let comps = Connectivity.components g in
  check_int "three components" 3 (List.length comps);
  check_int "count" 3 (Connectivity.component_count g)

let test_bridges () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  check_bool "tree edge is bridge" true (Connectivity.is_bridge g 2 3);
  check_bool "cycle edge is not" false (Connectivity.is_bridge g 0 1);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "bridges" [ (2, 3); (3, 4) ] (Connectivity.bridges g);
  check_bool "every cycle edge non-bridge" true
    (Connectivity.bridges (cycle 5) = [])

let test_cut_vertex () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  check_bool "cut vertex" true (Connectivity.is_cut_vertex g 2);
  check_bool "not cut" false (Connectivity.is_cut_vertex g 0);
  check_bool "star center cut" true (Connectivity.is_cut_vertex (star 5) 0)

(* ---------------- Girth ---------------- *)

let test_girth_cases () =
  check ext "triangle" (Ext_int.Fin 3) (Girth.girth (complete 4));
  check ext "c5" (Ext_int.Fin 5) (Girth.girth (cycle 5));
  check ext "tree inf" Ext_int.Inf (Girth.girth (star 7));
  check_bool "tree acyclic" true (Girth.is_acyclic (path 5));
  (* C4 with a chord has girth 3 *)
  let chord = Graph.add_edge (cycle 4) 0 2 in
  check ext "chorded c4" (Ext_int.Fin 3) (Girth.girth chord);
  (* two disjoint cycles: girth is the smaller *)
  let two = Graph.of_edges 9 [ (0,1);(1,2);(2,0); (3,4);(4,5);(5,6);(6,7);(7,8);(8,3) ] in
  check ext "min across components" (Ext_int.Fin 3) (Girth.girth two)

(* ---------------- Props ---------------- *)

let test_degree_sequence () =
  check (Alcotest.list Alcotest.int) "star degrees" [ 4; 1; 1; 1; 1 ]
    (Props.degree_sequence (star 5));
  check_int "max" 4 (Props.max_degree (star 5));
  check_int "min" 1 (Props.min_degree (star 5))

let test_regularity () =
  check (Alcotest.option Alcotest.int) "cycle 2-regular" (Some 2) (Props.regularity (cycle 6));
  check (Alcotest.option Alcotest.int) "star irregular" None (Props.regularity (star 5));
  check (Alcotest.option Alcotest.int) "petersen cubic" (Some 3) (Props.regularity petersen)

let test_shape_predicates () =
  check_bool "path is tree" true (Props.is_tree (path 6));
  check_bool "cycle not tree" false (Props.is_tree (cycle 6));
  check_bool "star is star" true (Props.is_star (star 8));
  check_bool "path not star" false (Props.is_star (path 5));
  check_bool "k2 is star" true (Props.is_star (complete 2));
  check_bool "cycle is cycle" true (Props.is_cycle (cycle 7));
  check_bool "path is path" true (Props.is_path (path 7));
  check_bool "cycle not path" false (Props.is_path (cycle 7));
  check_bool "forest" true (Props.is_forest (Graph.of_edges 5 [ (0, 1); (2, 3) ]));
  check_bool "bipartite c6" true (Props.is_bipartite (cycle 6));
  check_bool "not bipartite c5" false (Props.is_bipartite (cycle 5));
  check_bool "diameter at most" true (Props.has_diameter_at_most petersen 2);
  check_bool "diameter not within 1" false (Props.has_diameter_at_most petersen 1)

let test_strongly_regular () =
  (* Petersen is srg(10,3,0,1) *)
  check
    (Alcotest.option (Alcotest.pair (Alcotest.pair Alcotest.int Alcotest.int)
                        (Alcotest.pair Alcotest.int Alcotest.int)))
    "petersen srg"
    (Some ((10, 3), (0, 1)))
    (Option.map (fun (a, b, c, d) -> ((a, b), (c, d))) (Props.strongly_regular_params petersen));
  check_bool "c5 srg(5,2,0,1)" true
    (Props.strongly_regular_params (cycle 5) = Some (5, 2, 0, 1));
  check_bool "c6 not srg" false (Props.is_strongly_regular (cycle 6));
  check_bool "complete excluded" false (Props.is_strongly_regular (complete 5));
  check_bool "path not srg" false (Props.is_strongly_regular (path 4))

(* ---------------- Graph6 ---------------- *)

let test_graph6_known () =
  (* Known encodings from the format spec / nauty docs. *)
  check Alcotest.string "K4 encodes" "C~" (Graph6.encode (complete 4));
  check graph "K4 round trip" (complete 4) (Graph6.decode "C~");
  check Alcotest.string "empty5" "D??" (Graph6.encode (Graph.empty 5))

let test_graph6_roundtrip_random () =
  let rng = Prng.create 99 in
  for _ = 1 to 200 do
    let n = 1 + Prng.int rng 14 in
    let g = Random_graph.gnp rng n 0.4 in
    check graph "roundtrip" g (Graph6.decode (Graph6.encode g))
  done

let test_graph6_rejects_malformed () =
  let rejects what s =
    check_bool what true
      (match Graph6.decode s with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "empty string" "";
  rejects "order byte below range" "\x3e";
  rejects "truncated body" "C";
  rejects "overlong body" "C~~";
  rejects "body byte below 63" "C\x20";
  rejects "body byte above 126" "C\x7f";
  (* n=5 has 10 adjacency bits in 2 bytes, so the last 2 bits are padding;
     '@' = 64 puts a 1 in them *)
  rejects "nonzero padding bits" "D?@"

(* ---------------- multi-word orders (n > 62) ---------------- *)

let test_large_graph_ops () =
  let n = 130 in
  let g =
    Graph.build n (fun add ->
        for i = 0 to n - 2 do
          add i (i + 1)
        done;
        add 0 (n - 1);
        add 0 100)
  in
  check_int "order" n (Graph.order g);
  check_int "words" 3 (Graph.words g);
  check_int "size" (n + 1) (Graph.size g);
  check_bool "edge across words" true (Graph.has_edge g 0 100);
  check_bool "edge 0-(n-1)" true (Graph.has_edge g 0 (n - 1));
  check_int "degree 0" 3 (Graph.degree g 0);
  let g' = Graph.remove_edge g 0 100 in
  check_int "remove across words" n (Graph.size g');
  check_bool "removed" false (Graph.has_edge g' 0 100);
  (* iter_neighbors ascending, matching degree *)
  let nbrs = ref [] in
  Graph.iter_neighbors g 0 (fun v -> nbrs := v :: !nbrs);
  check (Alcotest.list Alcotest.int) "neighbors of 0" [ 1; 100; n - 1 ] (List.rev !nbrs);
  (* relabel / induced survive word boundaries *)
  let rev = Array.init n (fun v -> n - 1 - v) in
  let rg = Graph.relabel g rev in
  check_bool "relabel keeps edges" true (Graph.has_edge rg (n - 1) (n - 2));
  check_int "relabel keeps size" (Graph.size g) (Graph.size rg);
  let sub = Graph.induced g (List.init 70 Fun.id) in
  check_int "induced order" 70 (Graph.order sub);
  check_int "induced size" 69 (Graph.size sub);
  (* complement: size C(n,2) - m, no self loops *)
  let comp = Graph.complement g in
  check_int "complement size" ((n * (n - 1) / 2) - Graph.size g) (Graph.size comp);
  check_bool "complement flips" true (Graph.has_edge comp 0 50);
  check_bool "no self loop" false (Graph.has_edge comp 5 5);
  (* connectivity + BFS at large order *)
  check_bool "cycle connected" true (Connectivity.is_connected g);
  check ext "apsp diameter finite" (Apsp.diameter g) (Apsp.diameter g);
  let dist = Bfs.distances g 0 in
  check_int "wraparound distance" 1 dist.(n - 1)

let test_twin_rows_equal_large () =
  (* a 70-vertex star: all leaves are twins, hub is not *)
  let g = Graph.of_edges 70 (List.init 69 (fun i -> (0, i + 1))) in
  check_bool "leaves 1,2 twins" true (Graph.twin_rows_equal g 1 2);
  check_bool "leaves across words" true (Graph.twin_rows_equal g 1 69);
  check_bool "hub vs leaf" false (Graph.twin_rows_equal g 0 1);
  (* adjacent twins: a 64-clique's vertices are twins modulo the pair *)
  let k = 64 in
  let clique =
    Graph.build k (fun add -> Nf_util.Subset.iter_pairs k (fun i j -> add i j))
  in
  check_bool "clique adjacent twins" true (Graph.twin_rows_equal clique 62 63);
  let broken = Graph.remove_edge clique 0 63 in
  check_bool "broken twin" false (Graph.twin_rows_equal broken 62 63)

let test_graph6_multibyte () =
  check_int "max_order" 258047 Graph6.max_order;
  (* 63 is the first 4-byte-header order; its empty encoding is '~' + the
     18-bit big-endian order + body *)
  let e63 = Graph6.encode (Graph.empty 63) in
  check_bool "header starts with ~" true (e63.[0] = '~');
  check graph "empty 63 roundtrip" (Graph.empty 63) (Graph6.decode e63);
  let rng = Prng.create 0x67366d77 in
  List.iter
    (fun n ->
      let g = Random_graph.gnp rng n (3.0 /. float_of_int n) in
      check graph "multibyte roundtrip" g (Graph6.decode (Graph6.encode g)))
    [ 63; 64; 65; 100; 129 ];
  (* a non-canonical multi-byte header for a small order must not decode *)
  let small = Graph6.encode (Graph.empty 5) in
  let forged =
    "~" ^ String.init 3 (fun i -> Char.chr (63 + (if i = 2 then 5 else 0)))
    ^ String.sub small 1 (String.length small - 1)
  in
  check_bool "non-canonical multibyte header rejected" true
    (match Graph6.decode forged with exception Invalid_argument _ -> true | _ -> false);
  (* '~~' (6-byte header form) is beyond max_order: rejected *)
  check_bool "6-byte header rejected" true
    (match Graph6.decode "~~??????" with exception Invalid_argument _ -> true | _ -> false)

let test_large_order_error_messages () =
  Alcotest.check_raises "add_vertex past one word"
    (Invalid_argument "Graph.add_vertex: resulting order 63 > 62 (augmentation is \
                       one-word only)")
    (fun () -> ignore (Graph.add_vertex (Graph.empty 62) Bitset.empty));
  Alcotest.check_raises "components past one word"
    (Invalid_argument
       "Connectivity.components: order 63 > 62 (one-word bitset components; use component_labels)")
    (fun () -> ignore (Connectivity.components (Graph.empty 63)));
  (* constructing an order > max_order graph means an ~8.6 GB slab, so the
     encode-side ceiling is pinned by value here and exercised via the
     decode-side '~~' rejection in [test_graph6_multibyte] *)
  check_int "graph6 max order" 258047 Graph6.max_order

let prop_large_random_roundtrip =
  QCheck.Test.make ~name:"gnp at 63..200 graph6 roundtrip + degree sum" ~count:30
    QCheck.(pair (int_range 63 200) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Prng.create (seed + n) in
      let g = Random_graph.gnp rng n (2.0 /. float_of_int n) in
      let degree_sum = ref 0 in
      for v = 0 to n - 1 do
        degree_sum := !degree_sum + Graph.degree g v
      done;
      !degree_sum = 2 * Graph.size g && Graph.equal g (Graph6.decode (Graph6.encode g)))

(* seeded multi-word shapes for the bridge differentials: sparse gnp
   (usually disconnected, bridge-rich), denser gnp, one random tree
   (every edge a bridge), and a two-tree forest (bridges in both
   components, none across) *)
let multiword_bridge_graph (seed, mode) =
  let rng = Prng.create (0x5EED0 + (4 * seed) + mode) in
  let n = 63 + Prng.int rng 28 in
  match mode with
  | 0 -> Random_graph.gnp rng n (2.4 /. float_of_int n)
  | 1 -> Random_graph.gnp rng n 0.08
  | 2 -> Random_graph.tree rng n
  | _ ->
    let a = 31 + Prng.int rng 20 in
    let shift off g0 g =
      List.fold_left (fun acc (i, j) -> Graph.add_edge acc (i + off) (j + off)) g0
        (Graph.edges g)
    in
    shift a (shift 0 (Graph.empty n) (Random_graph.tree rng a)) (Random_graph.tree rng (n - a))

let prop_multiword_bridges_vs_naive =
  QCheck.Test.make ~name:"multiword bridges = naive remove-edge recount" ~count:40
    (QCheck.make
       ~print:(fun (seed, mode) -> Printf.sprintf "seed=%d mode=%d" seed mode)
       QCheck.Gen.(pair (int_bound 10000) (int_bound 3)))
    (fun params ->
      let g = multiword_bridge_graph params in
      let base = Connectivity.component_count g in
      let naive =
        List.filter
          (fun (i, j) -> Connectivity.component_count (Graph.remove_edge g i j) > base)
          (Graph.edges g)
      in
      Connectivity.bridges g = naive)

let prop_multiword_separation_vs_naive =
  QCheck.Test.make ~name:"multiword separation sums = per-bridge recount" ~count:25
    (QCheck.make
       ~print:(fun (seed, mode) -> Printf.sprintf "seed=%d mode=%d" seed mode)
       QCheck.Gen.(pair (int_bound 10000) (int_bound 3)))
    (fun ((seed, mode)) ->
      let g = multiword_bridge_graph (seed + 7919, mode) in
      let n = Graph.order g in
      let naive = Array.make n 0 in
      List.iter
        (fun (i, j) ->
          if Connectivity.is_bridge g i j then begin
            let labels = Connectivity.component_labels (Graph.remove_edge g i j) in
            let side l = Array.fold_left (fun c l' -> if l' = l then c + 1 else c) 0 labels in
            let size_i = side labels.(i) and size_j = side labels.(j) in
            Array.iteri
              (fun v lv ->
                if lv = labels.(i) then naive.(v) <- naive.(v) + size_j
                else if lv = labels.(j) then naive.(v) <- naive.(v) + size_i)
              labels
          end)
        (Graph.edges g);
      Connectivity.separation_sums_graph g = naive)

(* ---------------- Prüfer ---------------- *)

let test_prufer_known () =
  (* code [3;3;3;4] on 6 vertices: star-ish tree *)
  let t = Trees_prufer.decode 6 [| 3; 3; 3; 4 |] in
  check_int "tree size" 5 (Graph.size t);
  check_bool "is tree" true (Props.is_tree t);
  check (Alcotest.array Alcotest.int) "re-encode" [| 3; 3; 3; 4 |] (Trees_prufer.encode t)

let test_prufer_roundtrip () =
  let rng = Prng.create 5 in
  for _ = 1 to 300 do
    let n = 3 + Prng.int rng 12 in
    let code = Array.init (n - 2) (fun _ -> Prng.int rng n) in
    let t = Trees_prufer.decode n code in
    check_bool "decodes to tree" true (Props.is_tree t);
    check (Alcotest.array Alcotest.int) "roundtrip" code (Trees_prufer.encode t)
  done

(* ---------------- Random graphs ---------------- *)

let test_random_models () =
  let rng = Prng.create 2024 in
  let g = Random_graph.gnm rng 10 15 in
  check_int "gnm edge count" 15 (Graph.size g);
  let t = Random_graph.tree rng 12 in
  check_bool "random tree is tree" true (Props.is_tree t);
  let c = Random_graph.connected_gnp rng 9 0.15 in
  check_bool "connected_gnp connected" true (Connectivity.is_connected c);
  let p0 = Random_graph.gnp rng 8 0.0 in
  check_int "p=0 empty" 0 (Graph.size p0);
  let p1 = Random_graph.gnp rng 8 1.1 in
  check_int "p>=1 complete" 28 (Graph.size p1)

(* ---------------- Pp ---------------- *)

let contains ~needle haystack =
  let nl = String.length needle
  and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_pp_outputs () =
  let dot = Pp.to_dot (path 3) in
  check_bool "dot has edge" true (contains ~needle:"0 -- 1" dot)

let test_summary () =
  let s = Pp.summary petersen in
  check_bool "mentions srg" true (contains ~needle:"srg(10,3,0,1)" s)

(* property tests *)

let graph_arbitrary =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" seed n p)
    QCheck.Gen.(triple (int_bound 100000) (int_range 1 12) (float_range 0.0 1.0))

let graph_of (seed, n, p) = Random_graph.gnp (Prng.create seed) n p

let prop_distance_symmetric =
  QCheck.Test.make ~name:"distances symmetric" ~count:200 graph_arbitrary (fun params ->
      let g = graph_of params in
      let n = Graph.order g in
      let d = Bfs.all_distances g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if d.(i).(j) <> d.(j).(i) then ok := false
        done
      done;
      !ok)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200 graph_arbitrary (fun params ->
      let g = graph_of params in
      let n = Graph.order g in
      let d = Bfs.all_distances g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if d.(i).(j) >= 0 && d.(j).(k) >= 0 && d.(i).(k) >= 0 then
              if d.(i).(k) > d.(i).(j) + d.(j).(k) then ok := false
          done
        done
      done;
      !ok)

let prop_handshake =
  QCheck.Test.make ~name:"degree sum = 2m" ~count:300 graph_arbitrary (fun params ->
      let g = graph_of params in
      let total = List.fold_left ( + ) 0 (Props.degree_sequence g) in
      total = 2 * Graph.size g)

let prop_graph6_roundtrip =
  QCheck.Test.make ~name:"graph6 roundtrip" ~count:300 graph_arbitrary (fun params ->
      let g = graph_of params in
      Graph.equal g (Graph6.decode (Graph6.encode g)))

let prop_graph6_strict_inverse =
  (* decode accepts exactly encode's image: an arbitrary byte string
     either fails to decode or re-encodes to itself *)
  QCheck.Test.make ~name:"graph6 decode is a strict inverse" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 12))
    (fun s ->
      match Graph6.decode s with
      | exception Invalid_argument _ -> true
      | g -> Graph6.encode g = s)

let prop_graph6_truncations_rejected =
  QCheck.Test.make ~name:"graph6 truncations rejected" ~count:300 graph_arbitrary
    (fun params ->
      let s = Graph6.encode (graph_of params) in
      List.for_all
        (fun cut ->
          match Graph6.decode (String.sub s 0 cut) with
          | exception Invalid_argument _ -> true
          | _ -> false)
        (List.init (String.length s) Fun.id))

let prop_graph6_out_of_range_byte_rejected =
  QCheck.Test.make ~name:"graph6 unprintable corruption rejected" ~count:300
    QCheck.(pair graph_arbitrary (pair small_nat (Gen.int_range 0 62 |> make)))
    (fun (params, (pos, bad)) ->
      let s = Graph6.encode (graph_of params) in
      String.length s < 2
      ||
      let pos = 1 + (pos mod (String.length s - 1)) in
      let b = Bytes.of_string s in
      (* every byte value outside 63..126 must be rejected, wherever it lands *)
      Bytes.set b pos (Char.chr bad);
      match Graph6.decode (Bytes.to_string b) with
      | exception Invalid_argument _ -> true
      | _ -> false)

let prop_bridges_are_acyclic_edges =
  QCheck.Test.make ~name:"bridge iff not on a cycle" ~count:150 graph_arbitrary
    (fun params ->
      let g = graph_of params in
      List.for_all
        (fun (i, j) ->
          (* an edge is a bridge iff no cycle contains it, i.e. removing it
             kills all i-j paths *)
          let is_bridge = Connectivity.is_bridge g i j in
          let on_cycle =
            Nf_util.Bitset.mem j (Bfs.reachable (Graph.remove_edge g i j) i)
          in
          is_bridge = not on_cycle)
        (Graph.edges g))

let prop_eccentricity_bounds =
  QCheck.Test.make ~name:"radius <= eccentricity <= diameter" ~count:150 graph_arbitrary
    (fun params ->
      let g = graph_of params in
      let diameter = Apsp.diameter g
      and radius = Apsp.radius g in
      List.for_all
        (fun v ->
          let e = Bfs.eccentricity g v in
          Ext_int.(radius <= e) && Ext_int.(e <= diameter))
        (List.init (Graph.order g) Fun.id))

let prop_complement_involution =
  QCheck.Test.make ~name:"complement involution" ~count:300 graph_arbitrary
    (fun params ->
      let g = graph_of params in
      Graph.equal g (Graph.complement (Graph.complement g)))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_graph"
    [
      ( "kernel",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "toggle" `Quick test_toggle;
          Alcotest.test_case "edge listing" `Quick test_edges_listing;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "add_vertex" `Quick test_add_vertex;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "union" `Quick test_union;
        ] );
      ( "bfs/apsp",
        [
          Alcotest.test_case "path distances" `Quick test_bfs_path;
          Alcotest.test_case "disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "petersen metrics" `Quick test_apsp_petersen;
          Alcotest.test_case "star metrics" `Quick test_apsp_star;
          Alcotest.test_case "average distance" `Quick test_average_distance;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "connected" `Quick test_connected;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bridges" `Quick test_bridges;
          Alcotest.test_case "cut vertices" `Quick test_cut_vertex;
        ] );
      ("girth", [ Alcotest.test_case "cases" `Quick test_girth_cases ]);
      ( "props",
        [
          Alcotest.test_case "degree sequence" `Quick test_degree_sequence;
          Alcotest.test_case "regularity" `Quick test_regularity;
          Alcotest.test_case "shapes" `Quick test_shape_predicates;
          Alcotest.test_case "strongly regular" `Quick test_strongly_regular;
        ] );
      ( "graph6",
        [
          Alcotest.test_case "known" `Quick test_graph6_known;
          Alcotest.test_case "random roundtrip" `Quick test_graph6_roundtrip_random;
          Alcotest.test_case "rejects malformed" `Quick test_graph6_rejects_malformed;
        ] );
      ( "multiword",
        [
          Alcotest.test_case "large graph ops" `Quick test_large_graph_ops;
          Alcotest.test_case "twin rows past 62" `Quick test_twin_rows_equal_large;
          Alcotest.test_case "graph6 multibyte" `Quick test_graph6_multibyte;
          Alcotest.test_case "error messages name limits" `Quick
            test_large_order_error_messages;
          QCheck_alcotest.to_alcotest prop_large_random_roundtrip;
          QCheck_alcotest.to_alcotest prop_multiword_bridges_vs_naive;
          QCheck_alcotest.to_alcotest prop_multiword_separation_vs_naive;
        ] );
      ( "prufer",
        [
          Alcotest.test_case "known" `Quick test_prufer_known;
          Alcotest.test_case "roundtrip" `Quick test_prufer_roundtrip;
        ] );
      ("random", [ Alcotest.test_case "models" `Quick test_random_models ]);
      ( "pp",
        [
          Alcotest.test_case "dot" `Quick test_pp_outputs;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "properties",
        [
          qcheck prop_distance_symmetric;
          qcheck prop_triangle_inequality;
          qcheck prop_handshake;
          qcheck prop_graph6_roundtrip;
          qcheck prop_graph6_strict_inverse;
          qcheck prop_graph6_truncations_rejected;
          qcheck prop_graph6_out_of_range_byte_rejected;
          qcheck prop_bridges_are_acyclic_edges;
          qcheck prop_eccentricity_bounds;
          qcheck prop_complement_involution;
        ] );
    ]
