(* α-interval index: stable-at queries as binary search + range scan.

   Soundness argument (DESIGN.md §13).  Collect every finite endpoint of
   every stability piece (interval column, or each interval of a UCG
   union) into the sorted distinct array e_0 < ... < e_{k-1}.  These
   split the extended rational line into 2k+1 *elementary positions*:

     position 0      = (-inf, e_0)
     position 2i+1   = { e_i }            (the endpoint itself)
     position 2i+2   = (e_i, e_{i+1})     (gap; (e_{k-1}, +inf) at 2k)

   Every stability piece is a union of consecutive elementary positions,
   because each of its endpoints is one of the e_i — this is where the
   open/closed semantics are preserved *exactly*: a closed lower bound
   at e_i starts the range at position 2i+1, an open one at 2i+2, and
   dually for the upper bound.  And every query point α lands in exactly
   one elementary position (binary search: if α equals some e_i, it's
   2i+1, else 2j for j = #endpoints below α), where membership of each
   piece is constant.  So "which records are stable at α" = "which
   ranges cover position p" — a segment-tree stabbing query.

   Each piece's position range is inserted into the canonical O(log)
   node decomposition of an iterative segment tree; a point query
   k-way merges the node arrays on the leaf-to-root path, each already
   ascending because ids are inserted in ascending order.  When a
   record's pieces are pairwise disjoint (an interval region, or
   Union.to_list's normal form) its id appears at most once across that
   path — a node's span is contained in the range of the piece that
   inserted it, so two insertions of one record can never own the same
   node; overlapping pieces can place an id twice, on one node or two,
   and the merge drops exactly those repeats.  The merged answer —
   ascending, each id once — matches a linear [Interval.mem] filter
   over the records exactly. *)

module Interval = Nf_util.Interval
module Rat = Nf_util.Rat

type t = {
  endpoints : Rat.t array;  (* sorted, distinct, finite *)
  size : int;  (* leaves = 2k+1 elementary positions *)
  nodes : int array array;  (* 2*size heap-shaped node lists, each ascending *)
  records : int;
}

let endpoints t = t.endpoints
let records t = t.records

let build ~count ~pieces =
  let eps = ref [] in
  let each_bound i f =
    List.iter
      (fun iv ->
        match Interval.bounds iv with
        | None -> ()
        | Some (lo, lo_closed, hi, hi_closed) -> f lo lo_closed hi hi_closed)
      (pieces i)
  in
  for i = 0 to count - 1 do
    each_bound i (fun lo _ hi _ ->
        (match lo with Interval.Finite r -> eps := r :: !eps | _ -> ());
        match hi with Interval.Finite r -> eps := r :: !eps | _ -> ())
  done;
  let endpoints = Array.of_list (List.sort_uniq Rat.compare !eps) in
  let k = Array.length endpoints in
  let size = (2 * k) + 1 in
  let nodes = Array.make (2 * size) [] in
  let rank r =
    (* exact index of r in endpoints — r is always present by construction *)
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Rat.compare endpoints.(mid) r < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let add_range a b id =
    (* canonical decomposition of inclusive position range [a, b] *)
    let a = ref (a + size) and b = ref (b + size + 1) in
    while !a < !b do
      if !a land 1 = 1 then begin
        nodes.(!a) <- id :: nodes.(!a);
        incr a
      end;
      if !b land 1 = 1 then begin
        decr b;
        nodes.(!b) <- id :: nodes.(!b)
      end;
      a := !a asr 1;
      b := !b asr 1
    done
  in
  for i = 0 to count - 1 do
    each_bound i (fun lo lo_closed hi hi_closed ->
        let a =
          match lo with
          | Interval.Neg_inf -> 0
          | Interval.Finite r ->
            let j = rank r in
            if lo_closed then (2 * j) + 1 else (2 * j) + 2
          | Interval.Pos_inf -> size (* empty after normalization; defensive *)
        in
        let b =
          match hi with
          | Interval.Pos_inf -> size - 1
          | Interval.Finite r ->
            let j = rank r in
            if hi_closed then (2 * j) + 1 else 2 * j
          | Interval.Neg_inf -> -1
        in
        if a <= b then add_range a b i)
  done;
  { endpoints; size; nodes = Array.map (fun l -> Array.of_list (List.rev l)) nodes; records = count }

(* the elementary position α lands in *)
let position t alpha =
  let eps = t.endpoints in
  let k = Array.length eps in
  let lo = ref 0 and hi = ref k in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Rat.compare eps.(mid) alpha < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < k && Rat.compare eps.(!lo) alpha = 0 then (2 * !lo) + 1 else 2 * !lo

let stable_at t ~alpha =
  let path = ref [] in
  let v = ref (position t alpha + t.size) in
  while !v >= 1 do
    if Array.length t.nodes.(!v) > 0 then path := t.nodes.(!v) :: !path;
    v := !v asr 1
  done;
  (* merge from the top end down through a max-heap of the path's
     arrays, keyed by each one's largest unmerged id, so consing builds
     the ascending answer directly *)
  let srcs = Array.of_list !path in
  let next = Array.map (fun a -> Array.length a - 1) srcs in
  let key s = srcs.(s).(next.(s)) in
  let heap = Array.init (Array.length srcs) Fun.id in
  let live = ref (Array.length srcs) in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !live then begin
      let c = if l + 1 < !live && key heap.(l + 1) > key heap.(l) then l + 1 else l in
      if key heap.(c) > key heap.(i) then begin
        let h = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- h;
        sift c
      end
    end
  in
  for i = (!live / 2) - 1 downto 0 do
    sift i
  done;
  let acc = ref [] in
  while !live > 0 do
    let s = heap.(0) in
    let id = key s in
    (match !acc with last :: _ when last = id -> () | _ -> acc := id :: !acc);
    if next.(s) > 0 then next.(s) <- next.(s) - 1
    else begin
      decr live;
      heap.(0) <- heap.(!live)
    end;
    sift 0
  done;
  !acc
