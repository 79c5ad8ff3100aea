(* The socket-independent query engine behind the daemon, and the one
   read path every in-process store query takes.

   One [Service.t] wraps a mapped store plus columnar read structures,
   guarded for concurrent use from the pool domains the server
   dispatches requests on.  The first use of the service fills them all
   in one pass through the CRC-checked [Mmap_reader.iter], so they never
   hold bytes of a damaged chunk (a pass that raises [Layout.Corrupt]
   installs nothing):
   - the graph6 slab, one [Bytes] of count × width (a connected class's
     graph6 has one length per order: 7 bytes at n = 9, 9 at n = 10),
     which stable-at answers render from with no chunk decode;
   - one region dictionary ([Alpha_index]) per column the store carries;
   - the entry order: the ordinals sorted by their slab slice.
   At n = 9 that is 1.8 MB of slab, 0.7 MB of BCG ids (pointless
   regions keep none) and 2.1 MB of entry order; at n = 10, ~105 MB,
   ~33 MB and ~94 MB.  The figure-sweep response cache is keyed by
   (game, n, α-grid); the sweep is deterministic, so a cached CSV is
   byte-identical to a recomputed one.

   The contract is equality with a fresh annotation: a stable-at answer
   names exactly the classes [Equilibria] finds stable at that α, the
   figure points are what [Figures.sweep]/[sweep_game] compute with the
   same default grid, and export is [Dataset.to_csv] of the annotated
   atlas — bit for bit, since stored regions carry exact endpoints. *)

module Layout = Nf_store.Layout
module Interval = Nf_util.Interval
module Rat = Nf_util.Rat
module Figures = Nf_analysis.Figures

type column = Col_interval | Col_union

(* everything the first pass fills, installed at once *)
type columns = {
  width : int;  (* every record's graph6 length: one per order *)
  slab : Bytes.t;  (* record i's graph6 at bytes [i*width, (i+1)*width) *)
  dicts : (column * Alpha_index.t) list;  (* one per column the store carries *)
  by_graph6 : int array;  (* ordinals in ascending graph6 order *)
}

type t = {
  store : Mmap_reader.t;
  lock : Mutex.t;
  mutable columns : columns option;
  figure_cache : (string, string) Hashtbl.t;
  mutable figure_hits : int;
  mutable requests : int;
}

let create ?cache_chunks ~path () =
  {
    store = Mmap_reader.open_store ?cache_chunks ~path ();
    lock = Mutex.create ();
    columns = None;
    figure_cache = Hashtbl.create 8;
    figure_hits = 0;
    requests = 0;
  }

let store t = t.store
let n t = Mmap_reader.n t.store
let game t = Mmap_reader.game t.store
let length t = Mmap_reader.length t.store

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick_request t = locked t (fun () -> t.requests <- t.requests + 1)

(* the (game, column) pairs the store carries, decided by its content
   descriptor — the read-side mirror of [Build.annotator_of_content]:
   classic stores carry "bcg" in the interval column and "ucg" in the
   union column when built with it; a single-game store carries exactly
   its own game *)
let carried t =
  match Mmap_reader.content t.store with
  | Layout.Classic { with_ucg } ->
    ("bcg", Col_interval) :: (if with_ucg then [ ("ucg", Col_union) ] else [])
  | Layout.Game { union; _ } -> [ (game t, if union then Col_union else Col_interval) ]

(* the game a bare query (no --game) means on this store: the interval
   column of a classic store, the one game of a single-game store *)
let default_game t = fst (List.hd (carried t))

(* which carried column answers a requested game, looked up by its
   canonical name, so any spelling of a store's own instance finds it *)
let column t ~game:want =
  let name =
    match Nf_store.Build.(game_of_content (content_of_game want)) with
    | name -> name
    | exception Invalid_argument _ -> want
  in
  match List.assoc_opt name (carried t) with
  | Some col -> col
  | None -> invalid_arg (Printf.sprintf "store carries %S annotations, not %S" (game t) want)

let pieces_of col (r : Layout.record) =
  match col with
  | Col_interval -> [ r.Layout.bcg ]
  | Col_union -> ( match r.Layout.ucg with Some u -> Interval.Union.to_list u | None -> [])

(* the slots 0 .. count-1 in slab-slice (graph6) order: an LSD radix
   sort, one stable counting pass per byte column, last column first *)
let sort_slots slab width count =
  let rec pass k src dst =
    if k < 0 then src
    else begin
      let byte i = Char.code (Bytes.get slab ((i * width) + k)) in
      let next = Array.make 257 0 in
      Array.iter (fun i -> next.(byte i + 1) <- next.(byte i + 1) + 1) src;
      for b = 1 to 256 do
        next.(b) <- next.(b) + next.(b - 1)
      done;
      Array.iter
        (fun i ->
          dst.(next.(byte i)) <- i;
          next.(byte i) <- next.(byte i) + 1)
        src;
      pass (k - 1) dst src
    end
  in
  pass (width - 1) (Array.init count Fun.id) (Array.make count 0)

(* The one CRC-checked pass that fills the slab and every carried
   column's region dictionary.  It runs outside the lock and installs
   first-insert-wins: a concurrent duplicate build yields identical
   columns, which are dropped; a pass that raises installs nothing. *)
let columns t =
  match locked t (fun () -> t.columns) with
  | Some c -> c
  | None ->
    let count = length t and width = Nf_graph.Graph6.encoded_length (n t) in
    let slab = Bytes.create (count * width) in
    let builders = List.map (fun (_, col) -> (col, Alpha_index.builder ())) (carried t) in
    Mmap_reader.iter t.store (fun i r ->
        let g = r.Layout.graph6 in
        if String.length g <> width then
          raise
            (Layout.Corrupt
               (Printf.sprintf "%s: record %d: graph6 %S is not %d bytes" (Mmap_reader.path t.store)
                  i g width));
        Bytes.blit_string g 0 slab (i * width) width;
        List.iter (fun (col, b) -> Alpha_index.add b (pieces_of col r)) builders);
    let by_graph6 = sort_slots slab width count in
    let dicts = List.map (fun (col, b) -> (col, Alpha_index.freeze b)) builders in
    let built = { width; slab; dicts; by_graph6 } in
    locked t (fun () ->
        if Option.is_none t.columns then t.columns <- Some built;
        Option.get t.columns)

let dict t ~game =
  let col = column t ~game in
  List.assoc col (columns t).dicts

let stable_ids t ~game ~alpha = Alpha_index.stable_at (dict t ~game) ~alpha

let stable_slices t ~game ~alpha =
  let count, iter = Alpha_index.stab (dict t ~game) ~alpha in
  let { slab; width; _ } = columns t in
  { Json.slab; width; count; iter }

let find_entry t ~graph6 =
  let { width; slab; by_graph6 = order; _ } = columns t in
  let at slot = Bytes.sub_string slab (slot * width) width in
  (* leftmost slot whose graph6 is >= the probe; a store's graph6
     strings are distinct (one canonical representative per class) *)
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (at order.(mid)) graph6 < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length order && String.equal (at order.(!lo)) graph6 then
    let i = order.(!lo) in
    Some (i, Mmap_reader.record t.store i)
  else None

(* the (label, exact region) lines an entry renders as — one pair per
   column the store carries *)
let region_strings t (r : Layout.record) =
  List.map
    (fun (label, col) ->
      ( label,
        match col with
        | Col_interval -> Interval.to_string r.Layout.bcg
        | Col_union ->
          Interval.Union.to_string (Option.value ~default:Interval.Union.empty r.Layout.ucg) ))
    (carried t)

let stable_graphs t ~game ~alpha =
  List.map Nf_graph.Graph6.decode (Json.slice_strings (stable_slices t ~game ~alpha))

type figures = Classic of Figures.point list | Single of Figures.game_point list

(* classic dual stores sweep the paper's Figure 2/3 pair; every other
   store sweeps its own game's curves *)
let figures t ?grid () =
  match Mmap_reader.content t.store with
  | Layout.Classic { with_ucg = true } ->
    Classic
      (Figures.sweep_via
         ~bcg:(fun ~alpha -> stable_graphs t ~game:"bcg" ~alpha)
         ~ucg:(fun ~alpha -> stable_graphs t ~game:"ucg" ~alpha)
         ?grid ())
  | Layout.Classic { with_ucg = false } | Layout.Game _ ->
    let name = game t in
    Single
      (Figures.sweep_game_via (Netform.Game_registry.find_exn name)
         ~stable:(fun ~alpha -> stable_graphs t ~game:name ~alpha)
         ?grid ())

let figure_csv t ?grid () =
  let grid_list = match grid with Some g -> g | None -> Nf_analysis.Sweep.paper_grid in
  let key =
    Printf.sprintf "%s|%d|%s" (game t) (n t)
      (String.concat ";" (List.map Rat.to_string grid_list))
  in
  let hit =
    locked t (fun () ->
        let hit = Hashtbl.find_opt t.figure_cache key in
        if hit <> None then t.figure_hits <- t.figure_hits + 1;
        hit)
  in
  match hit with
  | Some csv -> csv
  | None ->
    let csv =
      match figures t ~grid:grid_list () with
      | Classic points -> Figures.to_csv points
      | Single points -> Figures.game_csv points
    in
    locked t (fun () -> Hashtbl.replace t.figure_cache key csv);
    csv

(* the stored atlas as the [Dataset] entries a fresh annotation builds,
   so [Dataset.to_csv] emits the same bytes as [annotate] *)
let export_csv t =
  let entries = ref [] in
  Mmap_reader.iter t.store (fun _ r ->
      entries :=
        {
          Nf_analysis.Dataset.graph = Nf_graph.Graph6.decode r.Layout.graph6;
          bcg_stable = r.Layout.bcg;
          ucg_nash = r.Layout.ucg;
        }
        :: !entries);
  Nf_analysis.Dataset.to_csv (List.rev !entries)

type stats = {
  records : int;
  chunks : int;
  volumes : int;
  cached_chunks : int;
  indexed_games : (string * int) list;  (* game, distinct endpoints *)
  regions : (string * int) list;  (* game, distinct regions *)
  resident_bytes : int;
  figure_cache_entries : int;
  figure_cache_hits : int;
  requests : int;
}

let stats t =
  let built, figure_cache_entries, figure_cache_hits, requests =
    locked t (fun () -> (t.columns, Hashtbl.length t.figure_cache, t.figure_hits, t.requests))
  in
  let per_game f =
    match built with
    | None -> []
    | Some c ->
      List.sort compare (List.map (fun (g, col) -> (g, f (List.assoc col c.dicts))) (carried t))
  in
  let resident_bytes =
    match built with
    | None -> 0
    | Some c ->
      let ids = List.fold_left (fun acc (_, d) -> acc + Alpha_index.ids d) 0 c.dicts in
      Bytes.length c.slab + (Sys.word_size / 8 * (ids + Array.length c.by_graph6))
  in
  {
    records = Mmap_reader.length t.store;
    chunks = Mmap_reader.chunks t.store;
    volumes = List.length (Mmap_reader.volumes t.store);
    cached_chunks = Mmap_reader.cached_chunks t.store;
    indexed_games = per_game (fun d -> Array.length (Alpha_index.endpoints d));
    regions = per_game Alpha_index.regions;
    resident_bytes;
    figure_cache_entries;
    figure_cache_hits;
    requests;
  }
