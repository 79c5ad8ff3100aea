(* Tests for nf_enum: labeled iteration, isomorphism-free enumeration
   against OEIS, tree enumeration, Prüfer coverage. *)

module Graph = Nf_graph.Graph
module Labeled = Nf_enum.Labeled
module Unlabeled = Nf_enum.Unlabeled
module Trees = Nf_enum.Trees
module Counts = Nf_enum.Counts
module Canon = Nf_iso.Canon

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Labeled ---------------- *)

let test_labeled_counts () =
  check_int "n=3 all" 8 (Labeled.count_all 3);
  check_int "n=4 all" 64 (Labeled.count_all 4);
  (* labeled connected graph counts (OEIS A001187) *)
  check_int "n=3 connected" 4 (Labeled.count_connected 3);
  check_int "n=4 connected" 38 (Labeled.count_connected 4);
  check_int "n=5 connected" 728 (Labeled.count_connected 5)

let test_labeled_mask_roundtrip () =
  for mask = 0 to 63 do
    let g = Labeled.graph_of_mask 4 mask in
    check_int "mask roundtrip" mask (Labeled.mask_of_graph g)
  done

let test_labeled_rejects_large () =
  Alcotest.check_raises "n=8 rejected"
    (Invalid_argument "Labeled.iter_all: order out of range") (fun () ->
      Labeled.iter_all 8 ignore)

(* ---------------- Unlabeled vs OEIS ---------------- *)

let test_unlabeled_counts_oeis () =
  (* n <= 7 exercises the reference enumerator, n = 8 the
     canonical-augmentation engine *)
  for n = 0 to 8 do
    check_int
      (Printf.sprintf "A000088(%d)" n)
      (Option.get (Counts.graphs n))
      (Unlabeled.count_all n);
    check_int
      (Printf.sprintf "A001349(%d)" n)
      (Option.get (Counts.connected_graphs n))
      (Unlabeled.count_connected n)
  done

let test_unlabeled_counts_n9_streaming () =
  (* the raised order ceiling: stream level 9 off the augmentation engine
     (never materialized) and check both OEIS oracles in one pass *)
  let all, connected =
    Unlabeled.fold_graphs 9
      (fun (a, c) g ->
        (a + 1, if Nf_graph.Connectivity.is_connected g then c + 1 else c))
      (0, 0)
  in
  check_int "A000088(9)" (Option.get (Counts.graphs 9)) all;
  check_int "A001349(9)" (Option.get (Counts.connected_graphs 9)) connected

(* ---------------- canonical augmentation vs reference ---------------- *)

let canonical_keys graphs = List.sort compare (List.map Canon.canonical_key graphs)

let test_augmentation_parity_reference () =
  (* the augmentation engine must produce exactly the classes of the
     reference (canonize + dedup) enumerator, level by level, through n=7 *)
  for n = 1 to 7 do
    Alcotest.(check (list string))
      (Printf.sprintf "classes at n=%d" n)
      (canonical_keys (Unlabeled.all_graphs n))
      (canonical_keys (Unlabeled.augmentation_level (Unlabeled.all_graphs (n - 1))))
  done

let test_augmentation_distinct_n8 () =
  (* exactly-once generation: beyond the count matching the oracle, no two
     representatives at n=8 may share a canonical form *)
  let keys = canonical_keys (Unlabeled.all_graphs 8) in
  check_int "pairwise distinct classes" (Option.get (Counts.graphs 8))
    (List.length (List.sort_uniq compare keys))

let test_augmentation_output_pinned_n8 () =
  (* the class sets above say nothing about which representative stands
     for a class or in what order; store bytes at n >= 8 depend on both,
     so the whole n=8 stream is pinned: the md5 of its graph6 lines, each
     newline-terminated *)
  let lines =
    List.map (fun g -> Nf_graph.Graph6.encode g ^ "\n") (Unlabeled.all_graphs 8)
  in
  Alcotest.(check string)
    "md5 of all_graphs 8 as graph6" "dfb92c2156aa0ce582c3a03513ce87fb"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

(* ---------------- streaming API ---------------- *)

let test_fold_matches_all_graphs () =
  List.iter
    (fun n ->
      let folded = List.rev (Unlabeled.fold_graphs n (fun acc g -> g :: acc) []) in
      check_bool
        (Printf.sprintf "fold order n=%d" n)
        true
        (List.for_all2 Graph.equal (Unlabeled.all_graphs n) folded))
    [ 0; 4; 6; 7 ]

let test_iter_connected_chunked () =
  List.iter
    (fun chunk ->
      let streamed = ref [] in
      let max_seen = ref 0 in
      Unlabeled.iter_connected_chunked ~chunk 6 (fun arr ->
          max_seen := max !max_seen (Array.length arr);
          check_bool "chunk within bound" true (Array.length arr <= chunk && Array.length arr > 0);
          Array.iter (fun g -> streamed := g :: !streamed) arr);
      let streamed = List.rev !streamed in
      let expected = Unlabeled.connected_graphs 6 in
      check_int "same count" (List.length expected) (List.length streamed);
      check_bool "same graphs in same order" true (List.for_all2 Graph.equal expected streamed))
    [ 1; 7; 100; 1000 ];
  Alcotest.check_raises "chunk=0 rejected"
    (Invalid_argument "Unlabeled.iter_connected_chunked: chunk < 1") (fun () ->
      Unlabeled.iter_connected_chunked ~chunk:0 3 ignore)

(* ---------------- sharded streaming ---------------- *)

let shard_stream ?chunk ~shard n =
  let acc = ref [] in
  Unlabeled.iter_connected_sharded ?chunk ~shard n (fun arr ->
      Array.iter (fun g -> acc := g :: !acc) arr);
  List.rev !acc

(* the partition contract: for every k, the multiset union of the k
   shard streams is exactly the unsharded connected stream, the shards
   are pairwise disjoint, and k = 1 preserves the order bit-for-bit *)
let test_shard_partition_contract () =
  for n = 3 to 7 do
    let whole = Unlabeled.connected_graphs n in
    let whole_keys = List.sort compare (List.map Graph.adjacency_key whole) in
    List.iter
      (fun k ->
        let shards = List.init k (fun j -> shard_stream ~chunk:5 ~shard:(j + 1, k) n) in
        (* exhaustive: the concatenation covers every class exactly once *)
        let union_keys =
          List.sort compare (List.concat_map (List.map Graph.adjacency_key) shards)
        in
        check_bool (Printf.sprintf "union n=%d k=%d" n k) true (union_keys = whole_keys);
        (* disjoint: no key may appear in two shards *)
        let seen = Hashtbl.create 256 in
        List.iteri
          (fun j shard ->
            List.iter
              (fun g ->
                let key = Graph.adjacency_key g in
                (match Hashtbl.find_opt seen key with
                | Some j' ->
                  Alcotest.failf "n=%d k=%d: class in shards %d and %d" n k (j' + 1) (j + 1)
                | None -> ());
                Hashtbl.add seen key j)
              shard)
          shards;
        (* concatenation preserves the unsharded stream order — the
           property store merges rest on *)
        check_bool
          (Printf.sprintf "concat order n=%d k=%d" n k)
          true
          (List.for_all2 Graph.equal whole (List.concat shards));
        (* shard_total is exact below the streaming boundary *)
        List.iteri
          (fun j shard ->
            check_int
              (Printf.sprintf "shard_total n=%d %d/%d" n (j + 1) k)
              (List.length shard)
              (Option.get (Unlabeled.shard_total ~shard:(j + 1, k) n)))
          shards)
      [ 1; 2; 3; 5 ];
    check_bool
      (Printf.sprintf "k=1 identical n=%d" n)
      true
      (List.for_all2 Graph.equal whole (shard_stream ~shard:(1, 1) n))
  done

let test_shard_guards () =
  List.iter
    (fun shard ->
      check_bool "bad shard rejected" true
        (match Unlabeled.iter_connected_sharded ~shard 4 ignore with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (0, 2); (3, 2); (1, 0); (-1, 3) ];
  check_bool "chunk < 1 rejected" true
    (match Unlabeled.iter_connected_sharded ~chunk:0 ~shard:(1, 2) 4 ignore with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* above the streaming boundary the split runs over parent ranges; one
   n=9 pass per shard proves the contract at scale: the counts sum to
   the oracle AND the distinct canonical representatives also reach it,
   which together force disjointness and exhaustiveness *)
let test_shard_partition_n9 () =
  let k = 4 in
  let seen = Hashtbl.create (1 lsl 18) in
  let total = ref 0 in
  for i = 1 to k do
    Unlabeled.iter_connected_sharded ~chunk:4096 ~shard:(i, k) 9 (fun arr ->
        total := !total + Array.length arr;
        Array.iter (fun g -> Hashtbl.replace seen (Graph.adjacency_key g) ()) arr)
  done;
  check_int "A001349(9) as multiset" (Option.get (Counts.connected_graphs 9)) !total;
  check_int "A001349(9) as set" (Option.get (Counts.connected_graphs 9)) (Hashtbl.length seen)

(* full-scale smoke (minutes of CPU): stream all of n=10 through a
   sharded split and hit the OEIS oracle.  Opt-in via
   NETFORM_COUNTS_FULL=1; ci.sh runs it in its full leg. *)
let test_shard_count_n10_full () =
  if Sys.getenv_opt "NETFORM_COUNTS_FULL" <> Some "1" then ()
  else begin
    let k = 4 in
    let total = ref 0 in
    for i = 1 to k do
      Unlabeled.iter_connected_sharded ~chunk:8192 ~shard:(i, k) 10 (fun arr ->
          total := !total + Array.length arr)
    done;
    check_int "A001349(10)" (Option.get (Counts.connected_graphs 10)) !total
  end

let test_unlabeled_all_canonical_distinct () =
  let graphs = Unlabeled.all_graphs 6 in
  let keys = List.map Graph.adjacency_key graphs in
  check_int "pairwise distinct representatives"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun g ->
      check_bool "representative is canonical" true
        (Graph.equal g (Canon.canonical_form g)))
    graphs

let test_unlabeled_agrees_with_labeled () =
  (* each labeled graph on 5 vertices must be isomorphic to exactly one
     enumerated representative *)
  let reps = Unlabeled.all_graphs 5 in
  let key_set = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.add key_set (Graph.adjacency_key g) ()) reps;
  Labeled.iter_all 5 (fun g ->
      let key = Graph.adjacency_key (Canon.canonical_form g) in
      check_bool "labeled graph covered" true (Hashtbl.mem key_set key))

(* ---------------- Trees ---------------- *)

let test_tree_counts_oeis () =
  for n = 1 to 10 do
    check_int
      (Printf.sprintf "A000055(%d)" n)
      (Option.get (Counts.trees n))
      (Trees.count_unlabeled n)
  done

let test_trees_are_trees () =
  List.iter
    (fun t -> check_bool "is tree" true (Nf_graph.Props.is_tree t))
    (Trees.unlabeled_trees 8)

let test_trees_distinct () =
  let trees = Trees.unlabeled_trees 9 in
  let keys = List.map Nf_iso.Ahu.encode trees in
  check_int "distinct encodings" (List.length keys) (List.length (List.sort_uniq compare keys))

let test_labeled_trees_cayley () =
  let count n =
    let c = ref 0 in
    Trees.iter_labeled_trees n (fun t ->
        check_bool "labeled tree is tree" true (Nf_graph.Props.is_tree t);
        incr c);
    !c
  in
  check_int "cayley n=4" 16 (count 4);
  check_int "cayley n=5" 125 (count 5);
  check_int "cayley n=6" 1296 (count 6);
  check_int "count_labeled" 16807 (Trees.count_labeled 7)

let test_labeled_trees_hit_all_classes () =
  (* Prüfer enumeration must cover every isomorphism class. *)
  let seen = Hashtbl.create 16 in
  Trees.iter_labeled_trees 6 (fun t -> Hashtbl.replace seen (Nf_iso.Ahu.encode t) ());
  check_int "all 6 classes" 6 (Hashtbl.length seen)

let () =
  Alcotest.run "nf_enum"
    [
      ( "labeled",
        [
          Alcotest.test_case "counts" `Quick test_labeled_counts;
          Alcotest.test_case "mask roundtrip" `Quick test_labeled_mask_roundtrip;
          Alcotest.test_case "rejects large" `Quick test_labeled_rejects_large;
        ] );
      ( "unlabeled",
        [
          Alcotest.test_case "OEIS counts" `Slow test_unlabeled_counts_oeis;
          Alcotest.test_case "OEIS counts n=9 (streaming)" `Slow test_unlabeled_counts_n9_streaming;
          Alcotest.test_case "distinct canonical" `Quick test_unlabeled_all_canonical_distinct;
          Alcotest.test_case "labeled coverage" `Quick test_unlabeled_agrees_with_labeled;
        ] );
      ( "augmentation",
        [
          Alcotest.test_case "parity with reference" `Slow test_augmentation_parity_reference;
          Alcotest.test_case "distinct at n=8" `Slow test_augmentation_distinct_n8;
          Alcotest.test_case "output pinned at n=8" `Slow test_augmentation_output_pinned_n8;
          Alcotest.test_case "fold order" `Quick test_fold_matches_all_graphs;
          Alcotest.test_case "connected chunks" `Quick test_iter_connected_chunked;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "partition contract" `Quick test_shard_partition_contract;
          Alcotest.test_case "guards" `Quick test_shard_guards;
          Alcotest.test_case "partition at n=9" `Slow test_shard_partition_n9;
          Alcotest.test_case "n=10 count (NETFORM_COUNTS_FULL)" `Quick test_shard_count_n10_full;
        ] );
      ( "trees",
        [
          Alcotest.test_case "OEIS counts" `Quick test_tree_counts_oeis;
          Alcotest.test_case "all are trees" `Quick test_trees_are_trees;
          Alcotest.test_case "distinct" `Quick test_trees_distinct;
          Alcotest.test_case "cayley" `Quick test_labeled_trees_cayley;
          Alcotest.test_case "class coverage" `Quick test_labeled_trees_hit_all_classes;
        ] );
    ]
