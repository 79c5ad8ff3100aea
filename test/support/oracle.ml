(* Specification oracles for every registered game family, one per
   family, and for the distance-utility profiles, written on persistent
   graphs straight from the paper's definitions.  They share no code
   with the production annotators: no kernel workspace, no Pairwise
   fold, no production threshold helper.
   Distances come from a fresh Bfs per graph, the adversary's separation
   counts from removing each edge in turn, and every threshold is an
   exact Rat (or +∞) folded with Interval.  test/test_differential.ml
   compares each production path with the oracle of its family. *)

module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
open Netform

let positive = Interval.open_closed Rat.zero Interval.Pos_inf

(* ---- thresholds ----------------------------------------------------------
   A threshold in α is [Finite r] or [Pos_inf]. *)

let add_t a b =
  match (a, b) with
  | Interval.Finite x, Interval.Finite y -> Interval.Finite (Rat.add x y)
  | _ -> Interval.Pos_inf

let div_t t k =
  match t with
  | Interval.Finite x -> Interval.Finite (Rat.div x (Rat.of_int k))
  | t -> t

let min_t a b = if Interval.compare_endpoint a b <= 0 then a else b
let equal_t a b = Interval.compare_endpoint a b = 0

(* α < t and α ≤ t *)
let below alpha t = Interval.compare_endpoint (Interval.Finite alpha) t < 0
let at_most alpha t = Interval.compare_endpoint (Interval.Finite alpha) t <= 0

(* ---- Definition 3 ----------------------------------------------------------
   A missing link whose endpoints' thresholds are [ts] (their benefits
   per unit of α paid) is added at α when every endpoint weakly gains
   and one strictly gains: with θ the least threshold, the addition
   blocks exactly on α < θ when the thresholds all equal θ, on α ≤ θ
   otherwise.  An endpoint cuts its link at α when its loss is below α.
   Each returns the set of α at which the deviation is not improving. *)

let addition_stable ts =
  let theta = List.fold_left min_t Interval.Pos_inf ts in
  Interval.make ~lo:theta ~lo_closed:(List.for_all (equal_t theta) ts) ~hi:Interval.Pos_inf
    ~hi_closed:false

let deletion_stable t = Interval.make ~lo:Interval.Neg_inf ~lo_closed:false ~hi:t ~hi_closed:true

(* ---- the pairwise families -----------------------------------------------
   A family prices the link (i, j) from the graphs with and without it:
   both endpoints' thresholds, benefits when [adding], losses otherwise.
   Each endpoint's threshold is its saving from holding the link, cost
   without it minus cost with it, where a player's cost apart from its
   links is its distance sum (∞ when it cannot reach everyone) plus a
   finite extra term.  An addition that connects a disconnected player
   saves ∞ and one that leaves it disconnected saves only the extra
   term; a deletion that leaves a player disconnected never improves. *)

type pricing =
  adding:bool ->
  with_:Graph.t ->
  without:Graph.t ->
  int ->
  int ->
  Interval.endpoint * Interval.endpoint

let saving ~adding (d_without, x_without) (d_with, x_with) =
  let extra = Rat.sub x_without x_with in
  match (d_without, d_with) with
  | Ext_int.Fin a, Ext_int.Fin b -> Interval.Finite (Rat.add (Rat.of_int (a - b)) extra)
  | Ext_int.Inf, Ext_int.Inf when adding -> Interval.Finite extra
  | _ -> Interval.Pos_inf

(* [cost g] is the per-player cost in [g]; applied once per graph *)
let endpoint_savings cost ~adding ~with_ ~without i j =
  let c_with = cost with_ and c_without = cost without in
  let s v = saving ~adding (c_without v) (c_with v) in
  (s i, s j)

let distance_cost g v = (Bfs.distance_sum g v, Rat.zero)

(* the BCG (eq. 1): distance sums only *)
let bcg : pricing = endpoint_savings distance_cost

(* player i pays w_i·α per link, so its thresholds are the BCG's over w_i *)
let weighted_bcg ~weight : pricing =
 fun ~adding ~with_ ~without i j ->
  let si, sj = bcg ~adding ~with_ ~without i j in
  (div_t si (weight i), div_t sj (weight j))

(* the generalized distance cost Σ_v f(d(i, v)) over finite hop counts,
   ∞ when some player is out of reach (Distance_utility's profiles) *)
let distance_utility f : pricing =
  endpoint_savings (fun g v ->
      let d = Bfs.distances g v in
      ( (if Array.exists (fun d -> d < 0) d then Ext_int.Inf
         else Ext_int.Fin (Array.fold_left (fun s d -> s + f d) 0 d)),
        Rat.zero ))

(* side payments decide on the joint surplus: an addition is priced at
   the joint benefit over 2 on both sides, a deletion at the joint loss
   over 2 for i and never for j, so the link is cut once, by i *)
let transfers : pricing =
 fun ~adding ~with_ ~without i j ->
  let si, sj = bcg ~adding ~with_ ~without i j in
  let joint = div_t (add_t si sj) 2 in
  if adding then (joint, joint) else (joint, Interval.Pos_inf)

(* Σ over edges of the players a failure of that edge cuts off from v *)
let separation_sums g =
  let n = Graph.order g in
  let reach g v = Array.fold_left (fun c d -> if d >= 0 then c + 1 else c) 0 (Bfs.distances g v) in
  let before = Array.init n (reach g) in
  let sep = Array.make n 0 in
  List.iter
    (fun (u, w) ->
      let cut = Graph.remove_edge g u w in
      for v = 0 to n - 1 do
        sep.(v) <- sep.(v) + before.(v) - reach cut v
      done)
    (Graph.edges g);
  sep

(* Kliemann's adversary (arXiv:1308.1832), a uniformly random edge
   attacked: the extra cost is the expected number of players cut off,
   S_v/m (0 without edges) *)
let adversary : pricing =
  endpoint_savings (fun g ->
      let m = Graph.size g and sep = separation_sums g in
      fun v -> (Bfs.distance_sum g v, if m = 0 then Rat.zero else Rat.make sep.(v) m))

let thresholds (price : pricing) g i j =
  if Graph.has_edge g i j then price ~adding:false ~with_:g ~without:(Graph.remove_edge g i j) i j
  else price ~adding:true ~with_:(Graph.add_edge g i j) ~without:g i j

(* every pair i < j in lexicographic order, with its presence and its
   thresholds *)
let priced_pairs price g =
  let pairs = ref [] in
  Nf_util.Subset.iter_pairs (Graph.order g) (fun i j ->
      pairs := (i, j, Graph.has_edge g i j, thresholds price g i j) :: !pairs);
  List.rev !pairs

let pair_stable (_, _, present, (ti, tj)) =
  if present then Interval.inter (deletion_stable ti) (deletion_stable tj)
  else addition_stable [ ti; tj ]

let pairwise_region price g =
  List.fold_left (fun r p -> Interval.inter r (pair_stable p)) positive (priced_pairs price g)

(* the moves Definition 3 allows at α, in the order Pairwise.improving_moves
   documents: deletions by reverse lexicographic edge, Delete (j, i)
   before Delete (i, j), then additions by reverse lexicographic pair *)
let pairwise_moves price ~alpha g =
  let priced = priced_pairs price g in
  let deletions =
    List.concat_map
      (fun (i, j, present, (ti, tj)) ->
        if not present then []
        else
          (if at_most alpha ti then [] else [ Pairwise.Delete (i, j) ])
          @ if at_most alpha tj then [] else [ Pairwise.Delete (j, i) ])
      priced
  and additions =
    List.filter_map
      (fun (i, j, present, (ti, tj)) ->
        if
          (not present)
          && ((below alpha ti && at_most alpha tj) || (below alpha tj && at_most alpha ti))
        then Some (Pairwise.Add (i, j))
        else None)
      priced
  in
  List.rev deletions @ List.rev additions

(* Definition 3 at one α: no deviation improves *)
let pairwise_stable price ~alpha g = pairwise_moves price ~alpha g = []

(* ---- coalitions of at most k players -------------------------------------
   A coalition S of 2..k players deviates by forming every absent link
   inside it, member v paying for its a_v new links, when every member
   weakly gains and one strictly gains; single players may cut one link,
   as in the BCG.  A member that pays for no new link is adjacent to
   every other member, so no new link shortens its paths: it weakly
   gains and never strictly, and the members that pay decide.  Every
   coalition is folded, pairs included. *)

let rec subsets ~k = function
  | [] -> [ [] ]
  | v :: rest ->
    let without = subsets ~k rest in
    without @ List.filter_map (fun s -> if List.length s < k then Some (v :: s) else None) without

let coalition_stable g members =
  let absent =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun w -> if u < w && not (Graph.has_edge g u w) then Some (u, w) else None)
          members)
      members
  in
  if absent = [] then Interval.full
  else begin
    let g' = List.fold_left (fun g (u, w) -> Graph.add_edge g u w) g absent in
    let paid v = List.length (List.filter (fun (u, w) -> u = v || w = v) absent) in
    let gain v = saving ~adding:true (distance_cost g v) (distance_cost g' v) in
    let payers = List.filter (fun v -> paid v > 0) members in
    addition_stable (List.map (fun v -> div_t (gain v) (paid v)) payers)
  end

let coalition ~k g =
  let deletions = List.filter (fun (_, _, present, _) -> present) (priced_pairs bcg g) in
  let coalitions =
    List.filter (fun s -> List.length s >= 2) (subsets ~k (List.init (Graph.order g) Fun.id))
  in
  List.fold_left
    (fun r s -> Interval.inter r (coalition_stable g s))
    (List.fold_left (fun r p -> Interval.inter r (pair_stable p)) positive deletions)
    coalitions

(* ---- the UCG --------------------------------------------------------------
   A Nash graph is one with an orientation (each edge bought by one
   endpoint) in which every player accepts its owned set. *)

(* The graph player i faces after discarding its own purchases: edges
   bought by others survive. *)
let base_graph g i ~owned = Bitset.fold (fun j acc -> Graph.remove_edge acc i j) owned g

(* Buying an edge that already exists is strictly dominated, so deviation
   targets range over the non-neighbors of the base graph. *)
let candidates base i =
  Bitset.diff (Bitset.remove i (Bitset.full (Graph.order base))) (Graph.neighbors base i)

let acceptance_interval g i ~owned =
  let d0 =
    match Bfs.distance_sum g i with
    | Ext_int.Fin d -> d
    | Ext_int.Inf -> invalid_arg "Oracle.acceptance_interval: player disconnected"
  in
  let k0 = Bitset.cardinal owned in
  let base = base_graph g i ~owned in
  let result = ref positive in
  Nf_util.Subset.iter_subsets (candidates base i) (fun targets ->
      let deviation = Bitset.fold (fun j acc -> Graph.add_edge acc i j) targets base in
      match Bfs.distance_sum deviation i with
      | Ext_int.Inf -> () (* deviation has infinite cost: never binding *)
      | Ext_int.Fin dt ->
        let k = Bitset.cardinal targets in
        (* constraint: α·k0 + d0 <= α·k + dt *)
        let constraint_interval =
          if k > k0 then
            Interval.make
              ~lo:(Interval.Finite (Rat.make (d0 - dt) (k - k0)))
              ~lo_closed:true ~hi:Interval.Pos_inf ~hi_closed:false
          else if k < k0 then
            Interval.make ~lo:Interval.Neg_inf ~lo_closed:false
              ~hi:(Interval.Finite (Rat.make (dt - d0) (k0 - k)))
              ~hi_closed:true
          else if dt >= d0 then Interval.full
          else Interval.empty
        in
        result := Interval.inter !result constraint_interval);
  !result

(* Assign each edge to an endpoint; as soon as a vertex has all its
   incident edges decided, intersect the running interval with its
   (memoized) acceptance interval and cut the branch when it empties.
   Every surviving orientation emits its interval: no coverage or
   symmetry pruning. *)
let ucg_nash g =
  if Graph.order g = 0 || not (Nf_graph.Connectivity.is_connected g) then Interval.Union.empty
  else begin
    let n = Graph.order g in
    let edges = Array.of_list (Graph.edges g) in
    let m = Array.length edges in
    let remaining = Array.make n 0 in
    Array.iter
      (fun (i, j) ->
        remaining.(i) <- remaining.(i) + 1;
        remaining.(j) <- remaining.(j) + 1)
      edges;
    let owned_now = Array.make n Bitset.empty in
    let memo = Hashtbl.create 64 in
    let judge v current =
      let owned = owned_now.(v) in
      let interval =
        match Hashtbl.find_opt memo (v, owned) with
        | Some interval -> interval
        | None ->
          let interval = acceptance_interval g v ~owned in
          Hashtbl.add memo (v, owned) interval;
          interval
      in
      let refined = Interval.inter current interval in
      if Interval.is_empty refined then None else Some refined
    in
    let covered = ref Interval.Union.empty in
    let rec assign e current =
      if e >= m then covered := Interval.Union.add current !covered
      else begin
        let i, j = edges.(e) in
        let try_owner owner other =
          owned_now.(owner) <- Bitset.add other owned_now.(owner);
          remaining.(i) <- remaining.(i) - 1;
          remaining.(j) <- remaining.(j) - 1;
          let verdict =
            match if remaining.(i) = 0 then judge i current else Some current with
            | Some current when remaining.(j) = 0 -> judge j current
            | verdict -> verdict
          in
          Option.iter (assign (e + 1)) verdict;
          owned_now.(owner) <- Bitset.remove other owned_now.(owner);
          remaining.(i) <- remaining.(i) + 1;
          remaining.(j) <- remaining.(j) + 1
        in
        try_owner i j;
        try_owner j i
      end
    in
    (* a connected graph has an edgeless vertex only when n = 1: judge it
       up front *)
    Option.iter (assign 0) (if m = 0 then judge 0 positive else Some positive);
    !covered
  end

(* ---- by registered game ---------------------------------------------------- *)

let coalition_k params = Scanf.sscanf params "k=%d" Fun.id

(* the registered weighted_bcg profile alternates unit and doubled link
   prices; coalition:k=2 has the BCG's moves *)
let pricing ~family =
  match family with
  | "bcg" | "coalition" -> bcg
  | "transfers" -> transfers
  | "weighted_bcg" -> weighted_bcg ~weight:(fun i -> 1 + (i mod 2))
  | "adversary" -> adversary
  | _ -> invalid_arg (Printf.sprintf "Oracle.pricing: no pairwise oracle for family %s" family)

let region (type r) ((module G) : r Game.t) : Graph.t -> r =
  match (G.region_kind, G.family) with
  | Game.Region.Interval, family -> pairwise_region (pricing ~family)
  | Game.Region.Union, "ucg" -> ucg_nash
  | Game.Region.Union, "coalition" ->
    let k = coalition_k G.params in
    if k = 1 then ucg_nash else fun g -> Interval.Union.of_list [ coalition ~k g ]
  | Game.Region.Union, _ -> invalid_arg (Printf.sprintf "Oracle.region: no oracle for %s" G.name)

(* a point certifier per registered game: Definition 3 at α for the
   pairwise families; for the Union games, whose deviations are not
   single links, membership in the exhaustive region *)
let is_stable (type r) ((module G) : r Game.t) ~alpha g =
  match G.region_kind with
  | Game.Region.Interval -> pairwise_stable (pricing ~family:G.family) ~alpha g
  | Game.Region.Union -> Interval.Union.mem alpha (region (module G) g)
