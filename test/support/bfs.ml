module Graph = Nf_graph.Graph
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int

(* Textbook queue BFS over [Graph.iter_neighbors].  Deliberately NOT the
   kernel's bitset-frontier algebra: this is the persistent reference the
   kernel is differential-tested against, so it shares no machinery with
   it.  Works at any order. *)
let distances g src =
  let n = Graph.order g in
  if src < 0 || src >= n then invalid_arg "Bfs.distances: vertex out of range";
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Array.make n 0 in
  queue.(0) <- src;
  let head = ref 0
  and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    Graph.iter_neighbors g v (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dv + 1;
          queue.(!tail) <- w;
          incr tail
        end)
  done;
  dist

let all_distances g = Array.init (Graph.order g) (fun v -> distances g v)

let distance g src dst =
  let n = Graph.order g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Bfs.distance: vertex out of range";
  let d = (distances g src).(dst) in
  if d < 0 then Ext_int.Inf else Ext_int.Fin d

let distance_sum g v =
  let dist = distances g v in
  let total = ref 0 in
  let disconnected = ref false in
  Array.iter (fun d -> if d < 0 then disconnected := true else total := !total + d) dist;
  if !disconnected then Ext_int.Inf else Ext_int.Fin !total

let eccentricity g v =
  let dist = distances g v in
  let worst = ref 0 in
  let disconnected = ref false in
  Array.iter (fun d -> if d < 0 then disconnected := true else worst := max !worst d) dist;
  if !disconnected then Ext_int.Inf else Ext_int.Fin !worst

let reachable g src =
  let n = Graph.order g in
  if n > Bitset.max_size then
    invalid_arg
      (Printf.sprintf
         "Bfs.reachable: order %d > %d (one-word bitset result; use reachable_words)" n
         Bitset.max_size);
  let dist = distances g src in
  let acc = ref Bitset.empty in
  Array.iteri (fun v d -> if d >= 0 then acc := Bitset.add v !acc) dist;
  !acc

(* Multi-word sibling of [reachable]: the component as a Bitset_w row
   (offset 0), built off the same reference [distances] walk, so it works
   at any order. *)
let reachable_words g src =
  let n = Graph.order g in
  let row = Array.make (Nf_util.Bitset_w.words_for n) 0 in
  let dist = distances g src in
  Array.iteri (fun v d -> if d >= 0 then Nf_util.Bitset_w.set row 0 v) dist;
  row
