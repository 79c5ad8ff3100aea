module Graph = Nf_graph.Graph
module Interval = Nf_util.Interval
module Layout = Nf_store.Layout
module Build = Nf_store.Build

type column = Col_interval | Col_union

type t = {
  n : int;
  content : Layout.content;
  iter : (Graph.t -> Layout.record -> unit) -> unit;
  stable : column -> Nf_util.Rat.t -> Graph.t list;
}

let n t = t.n
let content t = t.content
let game t = Build.game_of_content t.content

(* the (game, column) pairs a content carries — [Build.annotator_of_content]
   read back: a classic atlas carries "bcg" in the interval column and
   "ucg" in the union column when built with it; a single-game atlas
   carries exactly its own game *)
let carried content =
  match content with
  | Layout.Classic { with_ucg } ->
    ("bcg", Col_interval) :: (if with_ucg then [ ("ucg", Col_union) ] else [])
  | Layout.Game { union; _ } ->
    [ (Build.game_of_content content, if union then Col_union else Col_interval) ]

let default_game content = fst (List.hd (carried content))

(* which carried column answers a requested game, looked up by its
   canonical name, so any spelling of the atlas's own instance finds it *)
let column content ~game:want =
  let name =
    match Build.(game_of_content (content_of_game want)) with
    | name -> name
    | exception Invalid_argument _ -> want
  in
  match List.assoc_opt name (carried content) with
  | Some col -> col
  | None ->
    invalid_arg
      (Printf.sprintf "store carries %S annotations, not %S" (Build.game_of_content content) want)

let carries t ~game =
  match column t.content ~game with _ -> true | exception Invalid_argument _ -> false

let mem col alpha (r : Layout.record) =
  match col with
  | Col_interval -> Interval.mem alpha r.Layout.bcg
  | Col_union -> (
    match r.Layout.ucg with Some u -> Interval.Union.mem alpha u | None -> false)

let iter t f = t.iter f

let fold t f init =
  let acc = ref init in
  t.iter (fun g r -> acc := f !acc g r);
  !acc

let stable t ~game ~alpha = t.stable (column t.content ~game) alpha

let stored ~n ~content ~iter ~stable = { n; content; iter; stable }

(* ---- fresh sources: one annotation per (content, n) per process ------- *)

(* Mutex-guarded, and filled outside the lock: the annotation fans out
   across the domain pool, and a duplicated computation on a concurrent
   miss is benign because annotations are deterministic — the first
   insertion wins. *)
let memo : (Layout.content * int, (Graph.t * Layout.record) array) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()
let clear_cache () = Mutex.protect memo_lock (fun () -> Hashtbl.reset memo)

let annotated content n =
  let key = (content, n) in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some classes -> classes
  | None ->
    let chunks = ref [] in
    Build.iter_annotated ~chunk:1024 content n (fun _ graphs records ->
        chunks := Array.map2 (fun g r -> (g, r)) graphs records :: !chunks);
    let classes = Array.concat (List.rev !chunks) in
    Mutex.protect memo_lock (fun () ->
        match Hashtbl.find_opt memo key with
        | Some first -> first
        | None ->
          Hashtbl.add memo key classes;
          classes)

let fresh content n =
  {
    n;
    content;
    iter = (fun f -> Array.iter (fun (g, r) -> f g r) (annotated content n));
    stable =
      (fun col alpha ->
        Array.fold_right
          (fun (g, r) acc -> if mem col alpha r then g :: acc else acc)
          (annotated content n) []);
  }

let of_game name n = fresh (Build.content_of_game name) n
let classic n = fresh (Layout.classic ~with_ucg:true) n
