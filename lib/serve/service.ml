(* The socket-independent query engine behind the daemon, and the one
   read path every in-process store query takes.

   One [Service.t] wraps a mapped store plus columnar read structures,
   safe for concurrent use from the pool domains the server dispatches
   requests on: the columns and the request count are atomics, and only
   the figure cache takes the mutex.  The first use of the service
   fills the columns in one pass through the CRC-checked
   [Mmap_reader.iter], so they never hold bytes of a damaged chunk (a
   pass that raises [Layout.Corrupt] installs nothing):
   - the graph6 slab, one [Bytes] of count × width (a connected class's
     graph6 has one length per order: 7 bytes at n = 9, 9 at n = 10),
     which stable-at answers render from with no chunk decode;
   - one region dictionary ([Alpha_index]) per column the store carries,
     and next to it the column's region codes: record i's region number
     in the dictionary, 4 bytes per record;
   - the entry order: the ordinals sorted by their slab slice.
   [entry] reads the entry order, the slab and the region codes, so
   neither it nor stable-at decodes a chunk.  At n = 9 that is 1.8 MB
   of slab, 0.7 MB of BCG ids (pointless regions keep none), 1.0 MB of
   BCG codes and 2.1 MB of entry order; at n = 10, ~105 MB, ~33 MB,
   ~47 MB and ~94 MB.  The figure-sweep response cache is keyed by
   (game, n, α-grid); the sweep is deterministic, so a cached CSV is
   byte-identical to a recomputed one.

   [source] hands the store to every consumer as a
   [Nf_analysis.Source]: the figure and export ops render it with the
   same [Figures] and [Dataset] code a fresh annotation goes through, so
   the contract is equality with a fresh source of the same content. *)

module Layout = Nf_store.Layout
module Interval = Nf_util.Interval
module Rat = Nf_util.Rat
module Figures = Nf_analysis.Figures
module Source = Nf_analysis.Source

(* one carried column: its region dictionary, and record i's region
   code in it as an int32 at bytes [4i, 4i+4) *)
type column = { dict : Alpha_index.t; codes : Bytes.t }

(* everything the first pass fills, installed at once *)
type columns = {
  width : int;  (* every record's graph6 length: one per order *)
  slab : Bytes.t;  (* record i's graph6 at bytes [i*width, (i+1)*width) *)
  cols : (Source.column * column) list;  (* one per column the store carries *)
  by_graph6 : int array;  (* ordinals in ascending graph6 order *)
}

type t = {
  store : Mmap_reader.t;
  columns : columns option Atomic.t;
  requests : int Atomic.t;
  lock : Mutex.t;  (* guards the figure cache and its hit count *)
  figure_cache : (string, string) Hashtbl.t;
  mutable figure_hits : int;
}

let create ~path () =
  {
    store = Mmap_reader.open_store ~path ();
    columns = Atomic.make None;
    requests = Atomic.make 0;
    lock = Mutex.create ();
    figure_cache = Hashtbl.create 8;
    figure_hits = 0;
  }

let store t = t.store
let n t = Mmap_reader.n t.store
let game t = Mmap_reader.game t.store
let length t = Mmap_reader.length t.store

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick_request t = Atomic.incr t.requests

let content t = Mmap_reader.content t.store
let carried t = Source.carried (content t)
let default_game t = Source.default_game (content t)

let pieces_of col (r : Layout.record) =
  match col with
  | Source.Col_interval -> [ r.Layout.bcg ]
  | Source.Col_union -> ( match r.Layout.ucg with Some u -> Interval.Union.to_list u | None -> [])

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
   column's region dictionary and codes.  It installs first-insert-wins:
   a concurrent duplicate build yields identical columns, which are
   dropped; a pass that raises installs nothing. *)
let columns t =
  match Atomic.get t.columns with
  | Some c -> c
  | None ->
    let count = length t and width = Nf_graph.Graph6.encoded_length (n t) in
    let slab = Bytes.create (count * width) in
    let builders =
      List.map (fun (_, col) -> (col, Alpha_index.builder (), Bytes.create (4 * count))) (carried t)
    in
    Mmap_reader.iter t.store (fun i r ->
        let g = r.Layout.graph6 in
        if String.length g <> width then
          raise
            (Layout.Corrupt
               (Printf.sprintf "%s: record %d: graph6 %S is not %d bytes" (Mmap_reader.path t.store)
                  i g width));
        Bytes.blit_string g 0 slab (i * width) width;
        List.iter
          (fun (col, b, codes) ->
            Bytes.set_int32_le codes (4 * i) (Int32.of_int (Alpha_index.add b (pieces_of col r))))
          builders);
    let by_graph6 = sort_slots slab width count in
    let cols =
      List.map (fun (col, b, codes) -> (col, { dict = Alpha_index.freeze b; codes })) builders
    in
    let built = Some { width; slab; cols; by_graph6 } in
    if Atomic.compare_and_set t.columns None built then Option.get built
    else Option.get (Atomic.get t.columns)

let dict_of columns col = (List.assoc col columns.cols).dict
let dict t ~game = dict_of (columns t) (Source.column (content t) ~game)

let stable_ids t ~game ~alpha = Alpha_index.stable_at (dict t ~game) ~alpha

let slices_of t dict ~alpha =
  let count, iter = Alpha_index.stab dict ~alpha in
  let { slab; width; _ } = columns t in
  { Json.slab; width; count; iter }

let stable_slices t ~game ~alpha = slices_of t (dict t ~game) ~alpha

let find_entry t ~graph6 =
  let { width; slab; cols; by_graph6 = order } = columns t in
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
    let region col =
      Option.map
        (fun { dict; codes } ->
          Alpha_index.region dict (Int32.to_int (Bytes.get_int32_le codes (4 * i))))
        (List.assoc_opt col cols)
    in
    Some
      ( i,
        {
          Layout.graph6;
          bcg = Option.fold ~none:Interval.empty ~some:List.hd (region Source.Col_interval);
          ucg = Option.map Interval.Union.of_list (region Source.Col_union);
        } )
  else None

(* the (label, exact region) lines an entry renders as — one pair per
   column the store carries *)
let region_strings t (r : Layout.record) =
  List.map
    (fun (label, col) ->
      ( label,
        match col with
        | Source.Col_interval -> Interval.to_string r.Layout.bcg
        | Source.Col_union ->
          Interval.Union.to_string (Option.value ~default:Interval.Union.empty r.Layout.ucg) ))
    (carried t)

(* the store as a source: the CRC-checked record walk, and stable sets
   decoded off the graph6 slab by the column's region dictionary *)
let source ?game t =
  Option.iter (fun game -> ignore (Source.column (content t) ~game)) game;
  Source.stored ~n:(n t) ~content:(content t)
    ~iter:(fun f ->
      Mmap_reader.iter t.store (fun _ r -> f (Nf_graph.Graph6.decode r.Layout.graph6) r))
    ~stable:(fun col alpha ->
      List.map Nf_graph.Graph6.decode
        (Json.slice_strings (slices_of t (dict_of (columns t) col) ~alpha)))

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
    let csv = Figures.csv (Figures.figure ~grid:grid_list (source t)) in
    locked t (fun () -> Hashtbl.replace t.figure_cache key csv);
    csv

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
  let figure_cache_entries, figure_cache_hits =
    locked t (fun () -> (Hashtbl.length t.figure_cache, t.figure_hits))
  in
  let built = Atomic.get t.columns in
  let per_game f =
    match built with
    | None -> []
    | Some c -> List.sort compare (List.map (fun (g, col) -> (g, f (dict_of c col))) (carried t))
  in
  let resident_bytes =
    match built with
    | None -> 0
    | Some c ->
      let word = Sys.word_size / 8 in
      List.fold_left
        (fun acc (_, { dict; codes }) -> acc + Bytes.length codes + (word * Alpha_index.ids dict))
        (Bytes.length c.slab + (word * Array.length c.by_graph6))
        c.cols
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
    requests = Atomic.get t.requests;
  }
