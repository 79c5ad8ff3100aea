module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int

let degree_sequence g =
  let degrees = List.init (Graph.order g) (Graph.degree g) in
  List.sort (fun a b -> compare b a) degrees

let min_degree g =
  match degree_sequence g with
  | [] -> 0
  | ds -> List.fold_left min max_int ds

let max_degree g =
  match degree_sequence g with
  | [] -> 0
  | d :: _ -> d

let regularity g =
  let n = Graph.order g in
  if n = 0 then Some 0
  else
    let k = Graph.degree g 0 in
    let rec check v = v >= n || (Graph.degree g v = k && check (v + 1)) in
    if check 1 then Some k else None

let is_tree g = Connectivity.is_connected g && Graph.size g = Graph.order g - 1
let is_forest g = Girth.is_acyclic g

let is_star g =
  let n = Graph.order g in
  n >= 2
  && Graph.size g = n - 1
  && max_degree g = n - 1
  && Connectivity.is_connected g

let is_cycle g =
  Graph.order g >= 3 && regularity g = Some 2 && Connectivity.is_connected g

let is_path g =
  let n = Graph.order g in
  is_tree g
  && (n <= 2 || List.length (List.filter (fun v -> Graph.degree g v = 1) (List.init n Fun.id)) = 2)
     && max_degree g <= 2

let is_bipartite g =
  let n = Graph.order g in
  let color = Array.make n (-1) in
  let ok = ref true in
  for src = 0 to n - 1 do
    if color.(src) < 0 then begin
      color.(src) <- 0;
      let queue = Queue.create () in
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Bitset.iter
          (fun w ->
            if color.(w) < 0 then begin
              color.(w) <- 1 - color.(u);
              Queue.add w queue
            end
            else if color.(w) = color.(u) then ok := false)
          (Graph.neighbors g u)
      done
    end
  done;
  !ok

let common_neighbors g i j =
  Bitset.cardinal (Bitset.inter (Graph.neighbors g i) (Graph.neighbors g j))

let strongly_regular_params g =
  let n = Graph.order g in
  if n < 2 || Graph.is_complete g || Graph.is_empty_graph g then None
  else
    match regularity g with
    | None -> None
    | Some k ->
      let lambda = ref (-1)
      and mu = ref (-1)
      and ok = ref true in
      Nf_util.Subset.iter_pairs n (fun i j ->
          let c = common_neighbors g i j in
          let target = if Graph.has_edge g i j then lambda else mu in
          if !target < 0 then target := c else if !target <> c then ok := false);
      (* A disconnected regular graph can still pass with mu = 0; strongly
         regular graphs with mu = 0 are disjoint unions of cliques, which we
         keep, matching the standard definition. *)
      if !ok && !lambda >= 0 && !mu >= 0 then Some (n, k, !lambda, !mu) else None

let is_strongly_regular g = strongly_regular_params g <> None

let has_diameter_at_most g d =
  match Apsp.diameter g with
  | Ext_int.Inf -> false
  | Ext_int.Fin x -> x <= d
