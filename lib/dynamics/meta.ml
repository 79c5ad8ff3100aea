module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat

type analysis = {
  n : int;
  alpha : Rat.t;
  total : int;
  stable : int;
  reaching_stable : int;
  in_closed_cycle : int;
}

let check_order n =
  if n < 2 || n > 6 then invalid_arg "Meta: order out of range (2..6)"

(* successor masks of one graph under improving moves *)
let successors ~alpha n mask =
  let g = Nf_enum.Labeled.graph_of_mask n mask in
  List.map
    (fun move -> Nf_enum.Labeled.mask_of_graph (Game_dynamics.apply g move))
    (Netform.Bcg.improving_moves ~alpha g)

let build_digraph ~alpha n =
  let size = 1 lsl (n * (n - 1) / 2) in
  Array.init size (successors ~alpha n)

(* iterative Kosaraju: finish order on the forward digraph, then collect
   components on the reverse digraph *)
let sccs succ =
  let size = Array.length succ in
  let visited = Array.make size false in
  let order = ref [] in
  for start = 0 to size - 1 do
    if not visited.(start) then begin
      (* explicit stack of (node, remaining successors) *)
      let stack = ref [ (start, ref succ.(start)) ] in
      visited.(start) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (node, remaining) :: rest -> (
          match !remaining with
          | [] ->
            order := node :: !order;
            stack := rest
          | next :: others ->
            remaining := others;
            if not visited.(next) then begin
              visited.(next) <- true;
              stack := (next, ref succ.(next)) :: !stack
            end)
      done
    end
  done;
  let reverse = Array.make size [] in
  Array.iteri (fun v targets -> List.iter (fun w -> reverse.(w) <- v :: reverse.(w)) targets) succ;
  let component = Array.make size (-1) in
  let current = ref 0 in
  List.iter
    (fun root ->
      if component.(root) < 0 then begin
        let id = !current in
        incr current;
        let stack = ref [ root ] in
        component.(root) <- id;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | v :: rest ->
            stack := rest;
            List.iter
              (fun w ->
                if component.(w) < 0 then begin
                  component.(w) <- id;
                  stack := w :: !stack
                end)
              reverse.(v)
        done
      end)
    !order;
  (component, !current)

let analyze ~alpha ~n =
  check_order n;
  let succ = build_digraph ~alpha n in
  let size = Array.length succ in
  let stable_mask = Array.map (fun targets -> targets = []) succ in
  (* reverse reachability from the stable graphs *)
  let reverse = Array.make size [] in
  Array.iteri (fun v targets -> List.iter (fun w -> reverse.(w) <- v :: reverse.(w)) targets) succ;
  let can_reach = Array.copy stable_mask in
  let queue = Queue.create () in
  Array.iteri (fun v s -> if s then Queue.add v queue) stable_mask;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if not can_reach.(w) then begin
          can_reach.(w) <- true;
          Queue.add w queue
        end)
      reverse.(v)
  done;
  (* closed cycles: members of cyclic sink components *)
  let component, count = sccs succ in
  let comp_size = Array.make count 0 in
  let comp_has_exit = Array.make count false in
  Array.iteri
    (fun v targets ->
      comp_size.(component.(v)) <- comp_size.(component.(v)) + 1;
      List.iter
        (fun w -> if component.(w) <> component.(v) then comp_has_exit.(component.(v)) <- true)
        targets)
    succ;
  let in_closed_cycle = ref 0 in
  Array.iteri
    (fun v _ ->
      let c = component.(v) in
      if comp_size.(c) >= 2 && not comp_has_exit.(c) then incr in_closed_cycle)
    succ;
  {
    n;
    alpha;
    total = size;
    stable = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 stable_mask;
    reaching_stable = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 can_reach;
    in_closed_cycle = !in_closed_cycle;
  }

let reaches_stable ~alpha g =
  let n = Graph.order g in
  check_order n;
  let start = Nf_enum.Labeled.mask_of_graph g in
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  Hashtbl.add seen start ();
  Queue.add start queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let mask = Queue.pop queue in
    match successors ~alpha n mask with
    | [] -> found := true
    | targets ->
      List.iter
        (fun next ->
          if not (Hashtbl.mem seen next) then begin
            Hashtbl.add seen next ();
            Queue.add next queue
          end)
        targets
  done;
  !found

let no_closed_cycles a = a.in_closed_cycle = 0 && a.reaching_stable = a.total

let pp ppf a =
  Format.fprintf ppf
    "n=%d alpha=%s: %d graphs, %d stable, %d reach stability, %d on closed cycles" a.n
    (Rat.to_string a.alpha) a.total a.stable a.reaching_stable a.in_closed_cycle
