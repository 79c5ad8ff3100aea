(* The socket-independent query engine behind the daemon, and the one
   read path every in-process store query takes.

   One [Service.t] wraps a mapped store plus the derived read
   structures, all built lazily and guarded for concurrent use from the
   pool domains the server dispatches requests on:

   - per-game α-interval indexes (built on the first stable-at for that
     game column, from one streaming pass over the records);
   - the graph6 column: every record's graph6 string by ordinal, so a
     stable-at answer is one index stab plus one array read per id, with
     no chunk decode.  It is filled by the first full pass the service
     makes (the first index build or the first entry lookup, whichever
     runs first), always through the CRC-checked [Mmap_reader.iter], so
     it never holds bytes of a damaged chunk; a pass that raises
     [Layout.Corrupt] installs nothing.  At n = 9 it holds 261080
     strings of 7 bytes, ~6.3 MB of heap with headers and the array; an
     n = 10 store (~11.7 M strings of 9 bytes) would need ~375 MB;
   - the entry table: record ordinals sorted by their graph6, derived
     from the column without a store pass or a string copy, and
     searched by binary search (one int per record: ~2.1 MB at n = 9);
   - the figure-sweep response cache, keyed by (game, n, α-grid) — the
     sweep is deterministic, so a cached CSV is byte-identical to a
     recomputed one.

   The contract is equality with a fresh annotation: a stable-at answer
   names exactly the classes [Equilibria] finds stable at that α, the
   figure points are what [Figures.sweep]/[sweep_game] compute with the
   same default grid, and export is [Dataset.to_csv] of the annotated
   atlas.  The stored regions carry exact rational endpoints, so this
   holds bit for bit. *)

module Layout = Nf_store.Layout
module Interval = Nf_util.Interval
module Rat = Nf_util.Rat
module Figures = Nf_analysis.Figures

type column = Col_interval | Col_union

type t = {
  store : Mmap_reader.t;
  lock : Mutex.t;
  mutable indexes : (string * Alpha_index.t) list;
  mutable graph6s : string array option;  (* the graph6 column, by ordinal *)
  mutable by_graph6 : int array option;  (* ordinals in ascending graph6 order *)
  figure_cache : (string, string) Hashtbl.t;
  mutable figure_hits : int;
  mutable requests : int;
}

let create ?cache_chunks ~path () =
  {
    store = Mmap_reader.open_store ?cache_chunks ~path ();
    lock = Mutex.create ();
    indexes = [];
    graph6s = None;
    by_graph6 = None;
    figure_cache = Hashtbl.create 8;
    figure_hits = 0;
    requests = 0;
  }

let store t = t.store
let n t = Mmap_reader.n t.store
let game t = Mmap_reader.game t.store
let length t = Mmap_reader.length t.store

let tick_request t =
  Mutex.lock t.lock;
  t.requests <- t.requests + 1;
  Mutex.unlock t.lock

(* the game a bare query (no --game) means on this store: the interval
   column of a classic store, the one game of a single-game store *)
let default_game t =
  match Mmap_reader.content t.store with
  | Layout.Classic _ -> "bcg"
  | Layout.Game _ -> game t

(* which region column answers a game, decided by the store's content
   descriptor — the read-side mirror of [Build.annotator_of_content]:
   classic stores serve "bcg" from the interval column and "ucg" from
   the union column; a single-game store serves exactly its own game *)
let column t ~game:want =
  let reject () =
    invalid_arg (Printf.sprintf "store carries %S annotations, not %S" (game t) want)
  in
  match Mmap_reader.content t.store with
  | Layout.Classic { with_ucg } ->
    if want = "bcg" then Col_interval
    else if want = "ucg" then if with_ucg then Col_union else reject ()
    else reject ()
  | Layout.Game { tag; union; params } -> (
    match Nf_store.Build.content_of_game want with
    | Layout.Game { tag = want_tag; union = _; params = want_params }
      when want_tag = tag && want_params = params ->
      if union then Col_union else Col_interval
    | _ -> reject ()
    | exception Invalid_argument _ -> reject ())

let pieces_of col (r : Layout.record) =
  match col with
  | Col_interval -> [ r.Layout.bcg ]
  | Col_union -> ( match r.Layout.ucg with Some u -> Interval.Union.to_list u | None -> [])

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Every lazy structure below is built outside the lock and installed
   first-insert-wins: a concurrent duplicate build yields an identical
   structure, which is dropped. *)

(* the one full pass that fills the graph6 column, when no index build
   has filled it already *)
let graph6_column t =
  match locked t (fun () -> t.graph6s) with
  | Some col -> col
  | None ->
    let col = Array.make (length t) "" in
    Mmap_reader.iter t.store (fun i r -> col.(i) <- r.Layout.graph6);
    locked t (fun () ->
        if Option.is_none t.graph6s then t.graph6s <- Some col;
        Option.get t.graph6s)

let index t ~game:want =
  let col = column t ~game:want in
  match locked t (fun () -> List.assoc_opt want t.indexes) with
  | Some idx -> idx
  | None ->
    (* one streaming pass materializes just the regions, never the
       volume, and fills the graph6 column on the way if it is empty *)
    let count = length t in
    let regions = Array.make count [] in
    let names =
      if locked t (fun () -> Option.is_none t.graph6s) then Some (Array.make count "") else None
    in
    Mmap_reader.iter t.store (fun i r ->
        regions.(i) <- pieces_of col r;
        Option.iter (fun names -> names.(i) <- r.Layout.graph6) names);
    let idx = Alpha_index.build ~count ~pieces:(Array.get regions) in
    locked t (fun () ->
        if Option.is_none t.graph6s then t.graph6s <- names;
        if not (List.mem_assoc want t.indexes) then t.indexes <- (want, idx) :: t.indexes;
        List.assoc want t.indexes)

let stable_ids t ~game ~alpha = Alpha_index.stable_at (index t ~game) ~alpha

let stable_graph6 t ~game ~alpha =
  let ids = stable_ids t ~game ~alpha in
  let col = graph6_column t in
  List.map (Array.get col) ids

(* the column and its ordinals in ascending graph6 order *)
let entry_table t =
  match locked t (fun () -> (t.graph6s, t.by_graph6)) with
  | Some col, Some order -> (col, order)
  | _ ->
    let col = graph6_column t in
    let order = Array.init (Array.length col) Fun.id in
    Array.stable_sort (fun a b -> String.compare col.(a) col.(b)) order;
    locked t (fun () ->
        if Option.is_none t.by_graph6 then t.by_graph6 <- Some order;
        (col, Option.get t.by_graph6))

let find_entry t ~graph6 =
  let col, order = entry_table t in
  (* leftmost ordinal whose graph6 is >= the probe; a store's graph6
     strings are distinct (one canonical representative per class) *)
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare col.(order.(mid)) graph6 < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length order && String.equal col.(order.(!lo)) graph6 then
    let i = order.(!lo) in
    Some (i, Mmap_reader.record t.store i)
  else None

(* the (label, exact region) lines an entry renders as — one pair per
   column the store carries *)
let region_strings t (r : Layout.record) =
  let union_str () =
    Interval.Union.to_string (Option.value ~default:Interval.Union.empty r.Layout.ucg)
  in
  match Mmap_reader.content t.store with
  | Layout.Classic { with_ucg } ->
    ("bcg", Interval.to_string r.Layout.bcg) :: (if with_ucg then [ ("ucg", union_str ()) ] else [])
  | Layout.Game { union; _ } ->
    [ (game t, if union then union_str () else Interval.to_string r.Layout.bcg) ]

let stable_graphs t ~game ~alpha =
  List.map (fun s -> Nf_graph.Graph6.decode s) (stable_graph6 t ~game ~alpha)

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
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.figure_cache key in
  if hit <> None then t.figure_hits <- t.figure_hits + 1;
  Mutex.unlock t.lock;
  match hit with
  | Some csv -> csv
  | None ->
    let csv =
      match figures t ~grid:grid_list () with
      | Classic points -> Figures.to_csv points
      | Single points -> Figures.game_csv points
    in
    Mutex.lock t.lock;
    Hashtbl.replace t.figure_cache key csv;
    Mutex.unlock t.lock;
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
  figure_cache_entries : int;
  figure_cache_hits : int;
  requests : int;
}

let stats t =
  Mutex.lock t.lock;
  let indexed =
    List.map (fun (g, idx) -> (g, Array.length (Alpha_index.endpoints idx))) t.indexes
  in
  let s =
    {
      records = Mmap_reader.length t.store;
      chunks = Mmap_reader.chunks t.store;
      volumes = List.length (Mmap_reader.volumes t.store);
      cached_chunks = 0;
      indexed_games = List.sort compare indexed;
      figure_cache_entries = Hashtbl.length t.figure_cache;
      figure_cache_hits = t.figure_hits;
      requests = t.requests;
    }
  in
  Mutex.unlock t.lock;
  { s with cached_chunks = Mmap_reader.cached_chunks t.store }
