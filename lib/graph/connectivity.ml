module Bitset = Nf_util.Bitset

let is_connected g =
  Graph.order g = 0
  || Kernel.with_loaded g (fun ws -> Kernel.distance_sum_from ws 0 <> Kernel.inf)

(* ---- components --------------------------------------------------------- *)

(* Word-generic component labelling: one BFS sweep over a Bitset_w visited
   row, label = least vertex of the component (the order the sweep visits
   roots in).  Works at any order; the historical one-word [components]
   below keeps its exact bitset loops for n <= 62 callers. *)
let component_labels g =
  let n = Graph.order g in
  let label = Array.make n (-1) in
  let queue = Array.make (max n 1) 0 in
  for root = 0 to n - 1 do
    if label.(root) < 0 then begin
      label.(root) <- root;
      queue.(0) <- root;
      let head = ref 0
      and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        Graph.iter_neighbors g v (fun w ->
            if label.(w) < 0 then begin
              label.(w) <- root;
              queue.(!tail) <- w;
              incr tail
            end)
      done
    end
  done;
  label

let component_count g =
  let label = component_labels g in
  let count = ref 0 in
  Array.iteri (fun v l -> if l = v then incr count) label;
  !count

let components g =
  let n = Graph.order g in
  if n > Bitset.max_size then
    invalid_arg
      (Printf.sprintf "Connectivity.components: order %d > %d (one-word bitset \
                       components; use component_labels)" n Bitset.max_size);
  let label = component_labels g in
  let comp = Array.make n Bitset.empty in
  Array.iteri (fun v l -> comp.(l) <- Bitset.add v comp.(l)) label;
  List.filteri (fun v _ -> label.(v) = v) (Array.to_list comp)

(* ---- bridges ------------------------------------------------------------ *)

let is_bridge g i j =
  if not (Graph.has_edge g i j) then invalid_arg "Connectivity.is_bridge: not an edge";
  Kernel.with_loaded g (fun ws ->
      let _, before = Kernel.reach_stats ws i in
      Kernel.toggle ws i j;
      snd (Kernel.reach_stats ws i) < before)

(* Shared lowpoint DFS over generic adjacency, so the same machinery runs
   on persistent graphs ([Graph.iter_neighbors]) and kernel workspaces
   ([Kernel.iter_neighbors]) without either depending on the other.  The
   graph is simple, so skipping the one parent vertex is exact (no
   parallel edges).  Recursion depth is bounded by the order — fine for
   every order this library enumerates or samples. *)
let lowpoint_scan ~n ~iter_neighbors ~on_bridge =
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let sz = Array.make n 1 in
  let tout = Array.make n 0 in
  let comp_of = Array.make n (-1) in
  let time = ref 0 in
  let roots = ref [] in
  let rec dfs parent v comp =
    comp_of.(v) <- comp;
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    iter_neighbors v (fun w ->
        if w <> parent then
          if disc.(w) < 0 then begin
            dfs v w comp;
            sz.(v) <- sz.(v) + sz.(w);
            if low.(w) < low.(v) then low.(v) <- low.(w);
            if low.(w) > disc.(v) then on_bridge ~parent:v ~child:w ~size:sz.(w) ~comp
          end
          else if disc.(w) < low.(v) then low.(v) <- disc.(w));
    tout.(v) <- !time
  in
  let ncomp = ref 0 in
  for v = 0 to n - 1 do
    if disc.(v) < 0 then begin
      let comp = !ncomp in
      incr ncomp;
      dfs (-1) v comp;
      roots := v :: !roots
    end
  done;
  (disc, tout, sz, comp_of, !ncomp, List.rev !roots)

let bridges_via ~n ~iter_neighbors =
  let acc = ref [] in
  let _ =
    lowpoint_scan ~n ~iter_neighbors ~on_bridge:(fun ~parent ~child ~size:_ ~comp:_ ->
        acc := (min parent child, max parent child) :: !acc)
  in
  List.sort compare !acc

let bridges g = bridges_via ~n:(Graph.order g) ~iter_neighbors:(Graph.iter_neighbors g)

(* Per-vertex separation sums, the adversary game's bridge statistic:
   [sep.(v)] is the number of (bridge, vertex) pairs [(b, u)] with [b] in
   [v]'s component and [u] cut off from [v] when [b] fails — i.e.
   Σ over bridges b of the size of b's far side from v.  A bridge with
   child subtree size s in a component of size C contributes s to every
   other vertex of the component and C − s to the subtree — accumulated
   as a per-component total plus a difference array over DFS entry
   times, one O(n + m) pass for all vertices at once. *)
let separation_sums ~n ~iter_neighbors =
  if n = 0 then [||]
  else begin
    let comp_total = Array.make n 0 in
    let diff = Array.make (n + 1) 0 in
    let bridges = ref [] in
    let disc, tout, _sz, comp_of, _ncomp, _roots =
      lowpoint_scan ~n ~iter_neighbors ~on_bridge:(fun ~parent:_ ~child ~size ~comp ->
          comp_total.(comp) <- comp_total.(comp) + size;
          bridges := (child, size, comp) :: !bridges)
    in
    let comp_size = Array.make n 0 in
    for v = 0 to n - 1 do
      comp_size.(comp_of.(v)) <- comp_size.(comp_of.(v)) + 1
    done;
    List.iter
      (fun (child, s, comp) ->
        let c = comp_size.(comp) in
        diff.(disc.(child)) <- diff.(disc.(child)) + (c - (2 * s));
        diff.(tout.(child)) <- diff.(tout.(child)) - (c - (2 * s)))
      !bridges;
    let prefix = Array.make n 0 in
    let acc = ref 0 in
    for t = 0 to n - 1 do
      acc := !acc + diff.(t);
      prefix.(t) <- !acc
    done;
    Array.init n (fun v -> comp_total.(comp_of.(v)) + prefix.(disc.(v)))
  end

let separation_sums_graph g =
  separation_sums ~n:(Graph.order g) ~iter_neighbors:(Graph.iter_neighbors g)

let separation_total g = Array.fold_left ( + ) 0 (separation_sums_graph g)

(* ---- cut vertices ------------------------------------------------------- *)

let is_cut_vertex g v =
  let n = Graph.order g in
  let others = List.filter (fun u -> u <> v) (List.init n Fun.id) in
  let before = component_count (Graph.induced g others) in
  (* components among the other vertices in the full graph *)
  let label = component_labels g in
  let seen = Array.make n false in
  let among_others = ref 0 in
  List.iter
    (fun u ->
      if not seen.(label.(u)) then begin
        seen.(label.(u)) <- true;
        incr among_others
      end)
    others;
  before > !among_others
