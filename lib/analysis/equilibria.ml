module Graph = Nf_graph.Graph
module Interval = Nf_util.Interval
module Pool = Nf_util.Pool
open Netform

(* One cache for every game, keyed by (game name, n).  The region type is
   existentially packed with the game that produced it and recovered via
   the Region witness, so a single registry-driven [clear_cache] covers
   every game — including ones registered after this module was written. *)
type entry = Entry : 'r Game.t * (Graph.t * 'r) list -> entry

let cache : (string * int, entry) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

(* Twin-tier symmetry per (n, chunk index), shared across games: the
   enumeration order at a given [n] is deterministic and the chunk size is
   a module constant, so the first game to sweep a level pays the
   detection scans and every later game reuses the subgroups (and their
   cached edge orbits).  Memoizing whole chunks keeps the mutex off the
   per-graph path — one lookup and one insertion per ~thousand graphs.
   Only twin-tier results are stored (the memo is skipped while the
   quotient is disabled), and any stored subgroup is sound for every
   game, so flipping the flag mid-process never serves a wrong region.
   Cleared together with the annotation cache. *)
let sym_cache : (int * int, Nf_iso.Symmetry.t array) Hashtbl.t = Hashtbl.create 64

let clear_cache () =
  Mutex.protect cache_mutex (fun () ->
      Hashtbl.reset cache;
      Hashtbl.reset sym_cache)

let orbit_memo_size () =
  Mutex.protect cache_mutex (fun () ->
      Hashtbl.fold (fun _ syms acc -> acc + Array.length syms) sym_cache 0)

let sym_chunk_find ~n ~index =
  Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt sym_cache (n, index))

let sym_chunk_add ~n ~index syms =
  Mutex.protect cache_mutex (fun () ->
      if not (Hashtbl.mem sym_cache (n, index)) then Hashtbl.add sym_cache (n, index) syms)

(* The enumeration streams through the coordinating domain in chunks (the
   producer has its own cache and internal parallelism); only the per-graph
   annotation — a pure function of one graph — is fanned out, one chunk at a
   time, so the full graph level is never materialized even at orders where
   the annotated list itself is the largest live object.  Chunked fan-out of
   a pure function preserves input order, so the result is byte-identical to
   annotating the materialized list.

   Each worker body borrows its domain's resident kernel workspace
   ([Kernel.with_ws]): Pool workers are long-lived domains, so across the
   tens of thousands of graphs in a chunked build every domain reuses one
   set of scratch arrays and the annotation loop allocates only its
   results. *)
let annotation_chunk = 1024

(* Orbit-quotient routing: each worker takes its graph's sweep-tier
   subgroup ([Game.sweep_symmetry]: an O(n²) word-compare twin scan —
   far below one edge toggle — running inside the same fan-out, so
   detection parallelizes with the annotation) and hands it to the game's
   one annotator; a trivial subgroup is the all-pairs scan, so rigid
   graphs pay only the detection.  With the quotient enabled the
   per-chunk subgroup arrays are memoized so a second game sweeping the
   same level reuses them — along with their lazily cached edge orbits —
   instead of re-deriving anything; with it disabled every subgroup is
   the shared trivial one and nothing is memoized. *)
let annotate (type r) ((module G) : r Game.t) n =
  let memo = Nf_iso.Symmetry.quotient_enabled () in
  let annotate_one g sym = Nf_graph.Kernel.with_ws (fun ws -> G.stable_region_ws ws sym g) in
  let chunks = ref [] in
  let ci = ref 0 in
  Nf_enum.Unlabeled.iter_connected_chunked ~chunk:annotation_chunk n (fun graphs ->
      let index = !ci in
      incr ci;
      let annotated =
        match if memo then sym_chunk_find ~n ~index else None with
        | Some syms ->
          Pool.parallel_map_array
            (fun (g, sym) -> (g, annotate_one g sym))
            (Array.map2 (fun g sym -> (g, sym)) graphs syms)
        | None ->
          let results =
            Pool.parallel_map_array
              (fun g ->
                let sym = Game.sweep_symmetry g in
                (g, sym, annotate_one g sym))
              graphs
          in
          if memo then sym_chunk_add ~n ~index (Array.map (fun (_, sym, _) -> sym) results);
          Array.map (fun (g, _, r) -> (g, r)) results
      in
      chunks := annotated :: !chunks);
  List.concat_map Array.to_list (List.rev !chunks)

let annotated (type r) ((module G) as game : r Game.t) n : (Graph.t * r) list =
  let key = (G.name, n) in
  let unpack (Entry ((module Cached), list)) : (Graph.t * r) list =
    match Game.Region.same_kind Cached.region_kind G.region_kind with
    | Some Game.Region.Equal -> list
    | None ->
      invalid_arg
        (Printf.sprintf
           "Equilibria.annotated: two games named %S with different region kinds" G.name)
  in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key) with
  | Some entry -> unpack entry
  | None ->
    (* computed outside the lock: annotation fans out across the domain
       pool, and a duplicated computation on a concurrent miss is benign
       because annotations are deterministic — first insertion wins. *)
    let annotated = annotate game n in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some existing -> unpack existing
        | None ->
          Hashtbl.add cache key (Entry (game, annotated));
          annotated)

let stable_graphs (type r) ((module G) as game : r Game.t) ~n ~alpha =
  List.filter_map
    (fun (g, set) -> if Game.Region.mem G.region_kind alpha set then Some g else None)
    (annotated game n)

let stable_graphs_packed (Game.Any game) ~n ~alpha = stable_graphs game ~n ~alpha

let annotated_regions (Game.Any ((module G) as game)) n =
  List.map
    (fun (g, set) -> (g, Game.Region.to_string G.region_kind set))
    (annotated game n)

(* ---- the historical per-game entry points, now thin wrappers ---------- *)

let bcg_annotated n = annotated Game_registry.bcg n
let ucg_annotated n = annotated Game_registry.ucg n
let transfers_annotated n = annotated Game_registry.transfers n
let bcg_stable_graphs ~n ~alpha = stable_graphs Game_registry.bcg ~n ~alpha
let ucg_nash_graphs ~n ~alpha = stable_graphs Game_registry.ucg ~n ~alpha
let transfers_stable_graphs ~n ~alpha = stable_graphs Game_registry.transfers ~n ~alpha

let bcg_ever_stable n =
  List.filter (fun (_, set) -> not (Interval.is_empty set)) (bcg_annotated n)
