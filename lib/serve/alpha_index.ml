(* α-interval index: a dictionary from each distinct region (its pieces,
   compared structurally — normalized [Interval.t]/[Union.t] values are
   equal iff they are the same set) to the ascending ordinals carrying
   it.  Each record lies in exactly one entry, so the id arrays are
   disjoint, and merging the arrays of the entries whose pieces contain
   α ([Interval.mem], as a linear filter tests each record) is exactly
   the linear filter's answer (DESIGN.md §13).  A region containing no
   point keeps no ids. *)

module Interval = Nf_util.Interval
module Rat = Nf_util.Rat

type t = {
  regions : Interval.t list array;  (* the distinct regions, in first-seen order *)
  ids : int array array;  (* ascending ordinals per region *)
}

type entry = { code : int; live : bool; mutable buf : int array; mutable len : int }

type builder = {
  table : (Interval.t list, entry) Hashtbl.t;
  mutable seen : (Interval.t list * entry) list;  (* newest first *)
  mutable next : int;
}

let builder () = { table = Hashtbl.create 64; seen = []; next = 0 }

let add b pieces =
  let e =
    match Hashtbl.find_opt b.table pieces with
    | Some e -> e
    | None ->
      let live = List.exists (fun p -> not (Interval.is_empty p)) pieces in
      let e = { code = Hashtbl.length b.table; live; buf = [||]; len = 0 } in
      Hashtbl.add b.table pieces e;
      b.seen <- (pieces, e) :: b.seen;
      e
  in
  if e.live then begin
    if e.len = Array.length e.buf then e.buf <- Array.append e.buf (Array.make (max 16 e.len) 0);
    e.buf.(e.len) <- b.next;
    e.len <- e.len + 1
  end;
  b.next <- b.next + 1;
  e.code

let freeze b =
  let seen = Array.of_list (List.rev b.seen) in
  { regions = Array.map fst seen; ids = Array.map (fun (_, e) -> Array.sub e.buf 0 e.len) seen }

let regions t = Array.length t.regions
let region t code = t.regions.(code)
let ids t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.ids

let endpoints t =
  let finite acc = function Interval.Finite r -> r :: acc | _ -> acc in
  let add acc p =
    match Interval.bounds p with None -> acc | Some (lo, _, hi, _) -> finite (finite acc lo) hi
  in
  Array.of_list (List.sort_uniq Rat.compare (Array.fold_left (List.fold_left add) [] t.regions))

(* calls [f] on the ids of the disjoint ascending arrays [srcs] in
   ascending order, through a min-heap keyed by each one's next id *)
let merge srcs f =
  let next = Array.make (Array.length srcs) 0 in
  let key s = srcs.(s).(next.(s)) in
  let heap = Array.init (Array.length srcs) Fun.id in
  let live = ref (Array.length srcs) in
  let rec sift i =
    let l = (2 * i) + 1 in
    let c = if l + 1 < !live && key heap.(l + 1) < key heap.(l) then l + 1 else l in
    if c < !live && key heap.(c) < key heap.(i) then begin
      let h = heap.(i) in
      heap.(i) <- heap.(c);
      heap.(c) <- h;
      sift c
    end
  in
  for i = (!live / 2) - 1 downto 0 do
    sift i
  done;
  while !live > 0 do
    let s = heap.(0) in
    f (key s);
    next.(s) <- next.(s) + 1;
    if next.(s) = Array.length srcs.(s) then begin
      decr live;
      heap.(0) <- heap.(!live)
    end;
    sift 0
  done

let stab t ~alpha =
  let hits = ref [] in
  Array.iteri
    (fun r pieces ->
      if Array.length t.ids.(r) > 0 && List.exists (Interval.mem alpha) pieces then
        hits := t.ids.(r) :: !hits)
    t.regions;
  (List.fold_left (fun acc a -> acc + Array.length a) 0 !hits, merge (Array.of_list !hits))

let stable_at t ~alpha =
  let acc = ref [] in
  snd (stab t ~alpha) (fun i -> acc := i :: !acc);
  List.rev !acc
