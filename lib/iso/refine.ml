module Graph = Nf_graph.Graph
module Bw = Nf_util.Bitset_w

type partition = int list list

let unit_partition n = if n = 0 then [] else [ List.init n Fun.id ]

(* Counting sort on degree: filling the buckets from the top vertex down
   leaves each one ascending, and prepending them from degree 0 up emits
   the largest degree first. *)
let degree_partition g =
  let n = Graph.order g in
  let buckets = Array.make n [] in
  for v = n - 1 downto 0 do
    let d = Graph.degree g v in
    buckets.(d) <- v :: buckets.(d)
  done;
  let cells = ref [] in
  Array.iter (fun bucket -> if bucket <> [] then cells := bucket :: !cells) buckets;
  !cells

(* The partition lives in one int array: [elems] holds the cells as
   contiguous runs, and [cell_end.(s)] is the end of the cell starting at
   position [s] (entries at non-start positions are stale).  [keys] holds
   each position's neighbour count against the current splitter.

   Each round snapshots one mask per current cell and applies them in order
   against the evolving partition; any split triggers another round.  Cell
   count only grows, so this terminates in <= n rounds.  An empty input
   cell has no run, which is exact: its mask splits nothing and sorting is
   order-independent. *)
let refine g partition =
  if Graph.words g > 1 then
    invalid_arg
      (Printf.sprintf "Refine.refine: order %d exceeds the one-word limit" (Graph.order g));
  let size = List.fold_left (fun acc cell -> acc + List.length cell) 0 partition in
  let elems = Array.make size 0 in
  let cell_end = Array.make size 0 in
  let keys = Array.make size 0 in
  let pos = ref 0 in
  List.iter
    (fun cell ->
      let first = !pos in
      List.iter
        (fun v ->
          elems.(!pos) <- v;
          incr pos)
        cell;
      if !pos > first then cell_end.(first) <- !pos)
    partition;
  (* Split every cell of size >= 2 by neighbour count inside [splitter]:
     insertion-sort its run by (count descending, vertex ascending) and cut
     it where the count changes.  Returns whether anything split. *)
  let split_by splitter =
    let changed = ref false in
    let s = ref 0 in
    while !s < size do
      let first = !s in
      let stop = cell_end.(first) in
      if stop - first >= 2 then begin
        for p = first to stop - 1 do
          keys.(p) <- Bw.popcount (Graph.row_word g elems.(p) 0 land splitter)
        done;
        for p = first + 1 to stop - 1 do
          let key = keys.(p)
          and v = elems.(p) in
          let q = ref (p - 1) in
          while !q >= first && (keys.(!q) < key || (keys.(!q) = key && elems.(!q) > v)) do
            keys.(!q + 1) <- keys.(!q);
            elems.(!q + 1) <- elems.(!q);
            decr q
          done;
          keys.(!q + 1) <- key;
          elems.(!q + 1) <- v
        done;
        let start = ref first in
        for p = first + 1 to stop - 1 do
          if keys.(p) <> keys.(p - 1) then begin
            cell_end.(!start) <- p;
            start := p;
            changed := true
          end
        done;
        cell_end.(!start) <- stop
      end;
      s := stop
    done;
    !changed
  in
  let splitters = Array.make size 0 in
  let rec loop () =
    let count = ref 0 in
    let s = ref 0 in
    while !s < size do
      let stop = cell_end.(!s) in
      let mask = ref 0 in
      for p = !s to stop - 1 do
        mask := !mask lor (1 lsl elems.(p))
      done;
      splitters.(!count) <- !mask;
      incr count;
      s := stop
    done;
    let changed = ref false in
    for i = 0 to !count - 1 do
      if split_by splitters.(i) then changed := true
    done;
    if !changed then loop ()
  in
  loop ();
  (* Splitting only adds start marks, so input cell [i] becomes the run of
     output cells covering its original positions. *)
  let rec run first stop tail =
    if first = stop then tail
    else begin
      let e = cell_end.(first) in
      let cell = ref [] in
      for p = e - 1 downto first do
        cell := elems.(p) :: !cell
      done;
      !cell :: run e stop tail
    end
  in
  let rec emit first = function
    | [] -> []
    | [] :: rest -> [] :: emit first rest
    | cell :: rest ->
      let stop = first + List.length cell in
      run first stop (emit stop rest)
  in
  emit 0 partition

let is_discrete partition =
  List.for_all
    (function
      | [ _ ] -> true
      | _ -> false)
    partition

let first_non_singleton partition =
  List.find_opt
    (function
      | [] | [ _ ] -> false
      | _ -> true)
    partition

let individualize partition ~cell v =
  if not (List.mem v cell) then invalid_arg "Refine.individualize: vertex not in cell";
  List.concat_map
    (fun c ->
      if c == cell then [ [ v ]; List.filter (fun u -> u <> v) c ] else [ c ])
    partition
