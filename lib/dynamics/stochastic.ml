module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat

type verdict = {
  n : int;
  alpha : Rat.t;
  stable : Graph.t list;
  potential : int array;
  stochastically_stable : Graph.t list;
}

(* ---------------- the move-or-mutate digraph ---------------- *)

(* 0/1-cost shortest distances from [source]: improving arcs cost 0,
   single-link mutations cost 1.  Bucket queue indexed by cost (costs are
   bounded by the number of link slots). *)
let resistance_from succ bits source =
  let size = Array.length succ in
  let dist = Array.make size max_int in
  let buckets = Array.make (bits + 2) [] in
  dist.(source) <- 0;
  buckets.(0) <- [ source ];
  for cost = 0 to bits + 1 do
    let rec drain () =
      match buckets.(cost) with
      | [] -> ()
      | u :: rest ->
        buckets.(cost) <- rest;
        if dist.(u) = cost then begin
          (* free slides along improving moves *)
          List.iter
            (fun v ->
              if dist.(v) > cost then begin
                dist.(v) <- cost;
                buckets.(cost) <- v :: buckets.(cost)
              end)
            succ.(u);
          (* mutations: toggle any one link *)
          for k = 0 to bits - 1 do
            let v = u lxor (1 lsl k) in
            if dist.(v) > cost + 1 then begin
              dist.(v) <- cost + 1;
              buckets.(cost + 1) <- v :: buckets.(cost + 1)
            end
          done
        end;
        drain ()
    in
    drain ()
  done;
  dist

let resistances ~alpha ~n =
  if n < 2 || n > 5 then invalid_arg "Stochastic: order out of range (2..5)";
  let bits = n * (n - 1) / 2 in
  let succ = Meta.build_digraph ~alpha n in
  let stable_masks = ref [] in
  Array.iteri (fun mask targets -> if targets = [] then stable_masks := mask :: !stable_masks) succ;
  let stable_masks = Array.of_list (List.rev !stable_masks) in
  let v = Array.length stable_masks in
  let index_of = Hashtbl.create v in
  Array.iteri (fun i mask -> Hashtbl.add index_of mask i) stable_masks;
  let r = Array.make_matrix v v max_int in
  Array.iteri
    (fun i source ->
      let dist = resistance_from succ bits source in
      Array.iteri (fun j target -> r.(i).(j) <- dist.(target)) stable_masks;
      (* sanity: every stable state reachable (<= bits mutations suffice) *)
      Array.iteri (fun j cost -> if i <> j && cost > bits then invalid_arg "Stochastic: unreachable state") r.(i))
    stable_masks;
  let graphs = Array.to_list (Array.map (Nf_enum.Labeled.graph_of_mask n) stable_masks) in
  (graphs, r)

(* ---------------- Chu–Liu/Edmonds ---------------------------------------
   Minimum-weight spanning out-arborescence from [root] in a complete
   digraph given by a weight matrix; classical cycle-contraction, dense
   version.  Weights are small ints. *)
let min_arborescence_cost weight root =
  let v = Array.length weight in
  (* active nodes are 0..count-1 in the current contraction level *)
  let rec solve weight root v =
    if v = 1 then 0
    else begin
      (* cheapest incoming arc per non-root node *)
      let in_w = Array.make v max_int in
      let in_from = Array.make v (-1) in
      for u = 0 to v - 1 do
        for w = 0 to v - 1 do
          if u <> w && w <> root && weight.(u).(w) < in_w.(w) then begin
            in_w.(w) <- weight.(u).(w);
            in_from.(w) <- u
          end
        done
      done;
      (* find a cycle among the selected arcs *)
      let color = Array.make v 0 in
      (* 0 unvisited, 1 in progress, 2 done *)
      let cycle = ref [] in
      (try
         for s = 0 to v - 1 do
           if s <> root && color.(s) = 0 then begin
             let path = ref [] in
             let u = ref s in
             while !u <> root && color.(!u) = 0 do
               color.(!u) <- 1;
               path := !u :: !path;
               u := in_from.(!u)
             done;
             if !u <> root && color.(!u) = 1 then begin
               (* extract the cycle ending at !u *)
               let rec collect acc = function
                 | [] -> acc
                 | x :: rest -> if x = !u then x :: acc else collect (x :: acc) rest
               in
               cycle := collect [] !path;
               raise Exit
             end;
             List.iter (fun x -> color.(x) <- 2) !path
           end
         done
       with Exit -> ());
      match !cycle with
      | [] ->
        (* no cycle: the selection is the arborescence *)
        let total = ref 0 in
        for w = 0 to v - 1 do
          if w <> root then total := !total + in_w.(w)
        done;
        !total
      | cycle_nodes ->
        let in_cycle = Array.make v false in
        List.iter (fun x -> in_cycle.(x) <- true) cycle_nodes;
        let cycle_weight = List.fold_left (fun acc x -> acc + in_w.(x)) 0 cycle_nodes in
        (* contract the cycle into one super node *)
        let remap = Array.make v (-1) in
        let count = ref 0 in
        for x = 0 to v - 1 do
          if not in_cycle.(x) then begin
            remap.(x) <- !count;
            incr count
          end
        done;
        let super = !count in
        let v' = !count + 1 in
        List.iter (fun x -> remap.(x) <- super) cycle_nodes;
        let weight' = Array.make_matrix v' v' max_int in
        for u = 0 to v - 1 do
          for w = 0 to v - 1 do
            if u <> w && weight.(u).(w) < max_int then begin
              let u' = remap.(u)
              and w' = remap.(w) in
              if u' <> w' then begin
                (* entering the cycle at w discounts w's selected arc *)
                let adjusted =
                  if in_cycle.(w) then weight.(u).(w) - in_w.(w) else weight.(u).(w)
                in
                if adjusted < weight'.(u').(w') then weight'.(u').(w') <- adjusted
              end
            end
          done
        done;
        cycle_weight + solve weight' remap.(root) v'
    end
  in
  solve weight root v

let analyze ~alpha ~n =
  let stable, r = resistances ~alpha ~n in
  let v = List.length stable in
  if v > 300 then invalid_arg "Stochastic.analyze: too many stable states (use a larger alpha)";
  (* stochastic potential of state s: min in-arborescence toward s, i.e.
     out-arborescence from s over reversed weights *)
  let reversed = Array.init v (fun u -> Array.init v (fun w -> r.(w).(u))) in
  let potential = Array.init v (fun root -> min_arborescence_cost reversed root) in
  let best = Array.fold_left min max_int potential in
  let stable_arr = Array.of_list stable in
  let winners = ref [] in
  Array.iteri (fun i p -> if p = best then winners := stable_arr.(i) :: !winners) potential;
  { n; alpha; stable; potential; stochastically_stable = List.rev !winners }

let stochastically_stable_classes verdict =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun g ->
      let canon = Nf_iso.Canon.canonical_form g in
      let key = Graph.adjacency_key canon in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some canon
      end)
    verdict.stochastically_stable
