module Graph = Nf_graph.Graph
module Canon = Nf_iso.Canon
module Refine = Nf_iso.Refine
module Bitset = Nf_util.Bitset
module Pool = Nf_util.Pool

let max_order = 11

(* The reference (canonize + dedup) path serves every order up to this; it
   also fixes the historical output order that downstream annotation caches
   and golden outputs depend on.  Larger orders go through canonical
   augmentation. *)
let reference_max = 7

let cache : (int, Graph.t list) Hashtbl.t = Hashtbl.create 8
let connected_cache : (int, Graph.t list) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let clear_cache () =
  Mutex.protect cache_mutex (fun () ->
      Hashtbl.reset cache;
      Hashtbl.reset connected_cache)

let cached table n = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt table n)

(* computed outside the lock: levels fan out across the domain pool, and a
   duplicated computation on a concurrent miss is benign because the result
   is deterministic — first insertion wins *)
let store table n value =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt table n with
      | Some existing -> existing
      | None ->
        Hashtbl.add table n value;
        value)

(* ---------------- reference enumerator (generate, canonize, dedup) ------
   Every graph on [k+1] vertices is some graph on [k] vertices plus one more
   vertex with a choice of neighborhood; materialize all |G(k)| * 2^k
   augmentations, canonize them (in parallel, fixed-size batches), and keep
   the first representative of each canonical form.  Quadratic in rejected
   duplicates, but exact and order-stable: the parity oracle for the
   canonical-augmentation path below. *)

let batch_size = 4096

let reference_level n smaller =
  let seen = Hashtbl.create 1024 in
  let acc = ref [] in
  let batch = ref [] in
  let batch_len = ref 0 in
  let flush () =
    if !batch_len > 0 then begin
      let candidates = Array.of_list (List.rev !batch) in
      batch := [];
      batch_len := 0;
      let canons = Pool.parallel_map_array Canon.canonical_form candidates in
      Array.iter
        (fun canon ->
          let key = Graph.adjacency_key canon in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := canon :: !acc
          end)
        canons
    end
  in
  List.iter
    (fun g ->
      Nf_util.Subset.iter_subsets (Bitset.full (n - 1)) (fun nbrs ->
          batch := Graph.add_vertex g nbrs :: !batch;
          incr batch_len;
          if !batch_len >= batch_size then flush ()))
    smaller;
  flush ();
  List.rev !acc

(* ---------------- canonical augmentation (McKay) -------------------------

   Isomorph-free generation without a seen-table.  A child on [k+1] vertices
   is [parent + new vertex with neighborhood S]; each isomorphism class is
   produced exactly once because

   - neighborhoods [S] range only over orbit representatives of the
     parent's automorphism group acting on subsets, so a parent never
     produces two isomorphic children through symmetric neighborhoods, and
   - a child is accepted only if its new vertex lies in the {e canonical
     deleted-vertex orbit}: an isomorphism-invariant choice of one vertex
     orbit per child class (see [accepts]).  Deleting that orbit's vertex
     recovers the unique parent class, so distinct parents never produce
     isomorphic children either.

   The invariant vertex choice is made in two stages so that the expensive
   automorphism search runs only on ties: the chosen orbit is defined to lie
   inside the last cell of the child's equitable degree refinement (an
   isomorphism-invariant cell, since refinement is equivariant and cell
   order depends only on invariants).  If the new vertex is outside that
   cell the child is rejected outright; if the cell is the singleton [new
   vertex] it is a full orbit and the child is accepted outright.  Only
   when the cell has >= 2 vertices including the new one do we canonize the
   child and compare orbits: the chosen orbit is then the orbit of the
   cell's vertex with the largest canonical label (well defined up to
   automorphism, hence invariant). *)

let last_cell partition =
  let rec go = function
    | [ cell ] -> cell
    | _ :: rest -> go rest
    | [] -> invalid_arg "Unlabeled.last_cell: empty partition"
  in
  go partition

(* Cell order survives refinement (splitting replaces a cell by sub-groups
   in place), so the last refined cell always sits inside the last cell of
   the seed degree partition — the minimum-degree vertices.  A new vertex of
   non-minimal degree can therefore be rejected before refining; [children]
   does so on the neighborhood mask, before the child is even built. *)
let accepts child =
  let v = Graph.order child - 1 in
  let cell = last_cell (Refine.refine child (Refine.degree_partition child)) in
  match cell with
  | [ u ] -> u = v
  | cell when not (List.mem v cell) -> false
  | cell ->
    let f = Canon.full child in
    let w =
      List.fold_left (fun w u -> if f.Canon.perm.(u) > f.Canon.perm.(w) then u else w) v cell
    in
    f.Canon.orbits.(v) = f.Canon.orbits.(w)

(* Orbit representatives of the parent's automorphism group acting on
   neighbor subsets: the largest mask per orbit (the downward scan meets
   each orbit there first), in ascending mask order.  [None] for the
   common rigid case: every subset is its own orbit. *)
let subset_orbit_reps k generators =
  if generators = [] then None
  else begin
    let total = 1 lsl k in
    let seen = Bytes.make total '\000' in
    let image gen mask =
      Bitset.fold (fun v acc -> Bitset.add gen.(v) acc) mask Bitset.empty
    in
    let reps = ref [] in
    for mask = total - 1 downto 0 do
      if Bytes.get seen mask = '\000' then begin
        reps := mask :: !reps;
        let stack = ref [ mask ] in
        Bytes.set seen mask '\001';
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | m :: rest ->
            stack := rest;
            List.iter
              (fun gen ->
                let im = image gen m in
                if Bytes.get seen im = '\000' then begin
                  Bytes.set seen im '\001';
                  stack := im :: !stack
                end)
              generators
        done
      end
    done;
    Some !reps
  end

(* All accepted children of one parent, in ascending neighborhood-mask
   order.  Children keep the parent's labeling with the new vertex last, so
   a representative's every prefix is the representative chain that
   produced it; representatives are deterministic but (unlike the reference
   path) not canonical forms. *)
let children parent =
  let k = Graph.order parent in
  let generators = (Canon.full parent).Canon.generators in
  let degree = Array.init k (Graph.degree parent) in
  (* in [parent + mask] the new vertex has degree [popcount mask] and
     vertex [u] has [degree.(u) + [u in mask]]; the new vertex has minimum
     degree iff no [u] falls below it *)
  let minimum_degree mask =
    let d = Bitset.cardinal mask in
    let rec ok u = u >= k || (d <= degree.(u) + ((mask lsr u) land 1) && ok (u + 1)) in
    ok 0
  in
  let add acc mask =
    if not (minimum_degree mask) then acc
    else
      let child = Graph.add_vertex parent mask in
      if accepts child then child :: acc else acc
  in
  let acc =
    match subset_orbit_reps k generators with
    | None ->
      let acc = ref [] in
      for mask = 0 to (1 lsl k) - 1 do
        acc := add !acc mask
      done;
      !acc
    | Some reps -> List.fold_left add [] reps
  in
  List.rev acc

(* Stream one level: parents are fanned across the domain pool in
   contiguous chunks (each worker computes its parents' child lists), and
   [f] consumes the children sequentially in (parent, mask) order — the
   stream is deterministic and identical whatever the pool width. *)
let parent_chunk = 256

let iter_level_children parents f =
  let parents = Array.of_list parents in
  let total = Array.length parents in
  let pos = ref 0 in
  while !pos < total do
    let len = min parent_chunk (total - !pos) in
    let slice = Array.sub parents !pos len in
    pos := !pos + len;
    let per_parent = Pool.parallel_map_array children slice in
    Array.iter (fun cs -> List.iter f cs) per_parent
  done

let augmentation_level parents =
  let acc = ref [] in
  iter_level_children parents (fun h -> acc := h :: !acc);
  List.rev !acc

(* ---------------- levels, materialized and streaming ------------------- *)

let check_order name n =
  if n < 0 || n > max_order then
    invalid_arg (Printf.sprintf "Unlabeled.%s: order out of range" name)

let rec all_graphs n =
  check_order "all_graphs" n;
  match cached cache n with
  | Some graphs -> graphs
  | None ->
    let graphs =
      if n = 0 then [ Graph.empty 0 ]
      else if n <= reference_max then reference_level n (all_graphs (n - 1))
      else augmentation_level (all_graphs (n - 1))
    in
    store cache n graphs

(* Above this order a level is streamed off its (materialized) parent level
   instead of being built and cached: level n has ~22x more classes than
   level n-1, so holding the parents is cheap while the level itself is
   not. *)
let stream_above = 8

let fold_graphs n f init =
  check_order "fold_graphs" n;
  match cached cache n with
  | Some graphs -> List.fold_left f init graphs
  | None ->
    if n <= stream_above then List.fold_left f init (all_graphs n)
    else begin
      let acc = ref init in
      iter_level_children (all_graphs (n - 1)) (fun h -> acc := f !acc h);
      !acc
    end

let iter_graphs n f = fold_graphs n (fun () g -> f g) ()

let connected_graphs n =
  match cached connected_cache n with
  | Some graphs -> graphs
  | None ->
    let graphs = List.filter Nf_graph.Connectivity.is_connected (all_graphs n) in
    store connected_cache n graphs

let iter_connected n f =
  match cached connected_cache n with
  | Some graphs -> List.iter f graphs
  | None -> iter_graphs n (fun g -> if Nf_graph.Connectivity.is_connected g then f g)

(* Shared chunk assembly: batch a graph stream into bounded arrays in
   stream order.  [name] keys the guard message so each public entry
   point reports itself. *)
let chunked_sink ~name chunk f =
  if chunk < 1 then invalid_arg (Printf.sprintf "Unlabeled.%s: chunk < 1" name);
  let buf = ref [] in
  let len = ref 0 in
  let flush () =
    if !len > 0 then begin
      let arr = Array.of_list (List.rev !buf) in
      buf := [];
      len := 0;
      f arr
    end
  in
  let push g =
    buf := g :: !buf;
    incr len;
    if !len >= chunk then flush ()
  in
  (push, flush)

let iter_connected_chunked ?(chunk = 1024) n f =
  let push, flush = chunked_sink ~name:"iter_connected_chunked" chunk f in
  iter_connected n push;
  flush ()

(* ---------------- sharded enumeration ----------------------------------

   A shard is a deterministic slice of the connected stream — a pure
   function of [(n, i, k)], so independent processes (or machines) can
   each enumerate one shard and the concatenation over [i = 1..k]
   reproduces the unsharded stream exactly, in order:

   - [n <= stream_above]: the level is materialized anyway (and, at
     [n <= reference_max], its historical order comes from the reference
     enumerator, not the augmentation tree), so the split is a balanced
     contiguous index range of the connected level itself.
   - [n > stream_above]: the level only exists as a stream off its
     materialized parents, so the split is a balanced contiguous range
     of the {e parent-prefix}: shard [i] enumerates exactly the subtrees
     of its parents.  Canonical augmentation produces each child class
     under exactly one parent, so shard streams are pairwise disjoint
     and their union is the whole level; parents appear in enumeration
     order, so concatenating the shards in index order is the unsharded
     (parent, neighborhood-mask) stream. *)

let check_shard name (i, k) =
  if k < 1 || i < 1 || i > k then
    invalid_arg (Printf.sprintf "Unlabeled.%s: shard %d/%d out of range (need 1 <= i <= k)" name i k)

(* balanced contiguous ranges: shard i of k over [0, total) *)
let shard_range total (i, k) = ((i - 1) * total / k, i * total / k)

let iter_connected_sharded ?(chunk = 1024) ~shard n f =
  check_shard "iter_connected_sharded" shard;
  check_order "iter_connected_sharded" n;
  let _, k = shard in
  if k = 1 then iter_connected_chunked ~chunk n f
  else begin
    let push, flush = chunked_sink ~name:"iter_connected_sharded" chunk f in
    if n <= stream_above then begin
      let level = Array.of_list (connected_graphs n) in
      let lo, hi = shard_range (Array.length level) shard in
      for idx = lo to hi - 1 do
        push level.(idx)
      done
    end
    else begin
      let parents = Array.of_list (all_graphs (n - 1)) in
      let lo, hi = shard_range (Array.length parents) shard in
      let slice = Array.to_list (Array.sub parents lo (hi - lo)) in
      iter_level_children slice (fun g ->
          if Nf_graph.Connectivity.is_connected g then push g)
    end;
    flush ()
  end

let shard_total ~shard n =
  check_shard "shard_total" shard;
  check_order "shard_total" n;
  if n <= stream_above then
    Option.map
      (fun total ->
        let lo, hi = shard_range total shard in
        hi - lo)
      (Counts.connected_graphs n)
  else
    match (Counts.connected_graphs n, Counts.graphs (n - 1)) with
    | Some total, Some parents when parents > 0 ->
      let lo, hi = shard_range parents shard in
      Some (total * (hi - lo) / parents)
    | _ -> None

let count_all n = fold_graphs n (fun acc _ -> acc + 1) 0

let count_connected n =
  match cached connected_cache n with
  | Some graphs -> List.length graphs
  | None ->
    fold_graphs n (fun acc g -> if Nf_graph.Connectivity.is_connected g then acc + 1 else acc) 0
