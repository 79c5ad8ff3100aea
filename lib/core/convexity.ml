module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int

let deletion_distance_increase g i nbrs =
  if not (Bitset.subset nbrs (Graph.neighbors g i)) then
    invalid_arg "Convexity.deletion_distance_increase: not a neighbor subset";
  Kernel.with_loaded g (fun ws ->
      let base = Kernel.distance_sum_from ws i in
      Bitset.iter (fun j -> Kernel.toggle ws i j) nbrs;
      (* an infinite cost stays infinite: no increase *)
      if base = Kernel.inf then Ext_int.Fin 0
      else Kernel.to_ext (Pairwise.iloss ~base (Kernel.distance_sum_from ws i)))

let is_cost_convex_at g i =
  let nbrs = Graph.neighbors g i in
  let single = Hashtbl.create 8 in
  Bitset.iter
    (fun j ->
      Hashtbl.add single j (deletion_distance_increase g i (Bitset.singleton j)))
    nbrs;
  let ok = ref true in
  Nf_util.Subset.iter_subsets nbrs (fun b ->
      if Bitset.cardinal b >= 2 then begin
        let joint = deletion_distance_increase g i b in
        let sum = Bitset.fold (fun j acc -> Ext_int.add acc (Hashtbl.find single j)) b Ext_int.zero in
        if Ext_int.( < ) joint sum then ok := false
      end);
  !ok

let is_cost_convex g =
  let rec go i = i >= Graph.order g || (is_cost_convex_at g i && go (i + 1)) in
  go 0

let max_addition_gain g =
  let best = ref None in
  Graph.iter_non_edges g (fun i j ->
      let update v =
        best :=
          Some
            (match !best with
            | None -> v
            | Some b -> Ext_int.max b v)
      in
      update (Bcg.addition_benefit g i j);
      update (Bcg.addition_benefit g j i));
  !best

let min_severance_loss g =
  let best = ref None in
  Graph.iter_edges g (fun i j ->
      let update v =
        best :=
          Some
            (match !best with
            | None -> v
            | Some b -> Ext_int.min b v)
      in
      update (Bcg.severance_loss g i j);
      update (Bcg.severance_loss g j i));
  !best

let link_convexity_gap g =
  match max_addition_gain g, min_severance_loss g with
  | Some gain, Some loss -> Some (gain, loss)
  | (None | Some _), _ -> None

let is_link_convex g =
  match max_addition_gain g with
  | None -> true (* complete graph: nothing to add *)
  | Some gain -> (
    match min_severance_loss g with
    | None -> false (* additions possible but nothing to sever *)
    | Some loss -> Ext_int.( < ) gain loss)

(* Inequality (3) gives α_min <= max gain < min loss = α_max, so any α in
   (max gain, min loss] supports the graph; the midpoint (or gain+1 when
   severance is unbounded) is a convenient representative. *)
let witness_alpha g =
  if not (is_link_convex g) then None
  else
    match max_addition_gain g, min_severance_loss g with
    | Some (Ext_int.Fin gain), Some (Ext_int.Fin loss) ->
      Some (Nf_util.Rat.make (gain + loss) 2)
    | Some (Ext_int.Fin gain), Some Ext_int.Inf -> Some (Nf_util.Rat.of_int (gain + 1))
    | None, _ -> Some Nf_util.Rat.one (* complete graph: any α <= 1 *)
    | Some Ext_int.Inf, _ | Some (Ext_int.Fin _), None -> None
