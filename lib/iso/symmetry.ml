module Graph = Nf_graph.Graph
module Bitset = Nf_util.Bitset

(* A (sub)group of automorphisms of one graph, as the generator list that
   witnesses it.  Everything downstream is sound for any subgroup: orbits
   under a subgroup refine the true orbits, so quotienting by them skips
   only work that provably repeats.  The edge-orbit partition is cached
   behind an [Atomic] so a value shared across domains (the annotation
   memo hands one [t] to every game) computes it at most once per racer
   and never tears. *)
type edge_orbits = {
  reps : int array;
  orbit_of_pair : int array;
}

(* The twin tier stores no generator arrays at all: [classes.(v)] is the
   smallest vertex of [v]'s orbit and [second.(c)] the second-smallest
   member of class [c] (-1 for singletons).  The generated group is the
   direct product of the full symmetric groups on the classes, so pair
   orbits are decided by class pairs in O(1) and explicit transpositions
   are only materialized on demand ({!generators}) — the sweep path,
   which detects millions of subgroups, allocates two small int arrays
   per symmetric graph and nothing per rigid graph. *)
type witness =
  | Explicit of int array list
  | Twins of { classes : int array; second : int array }

type t = {
  n : int;
  witness : witness;
  orbits_cache : edge_orbits option Atomic.t;
}

let make n witness = { n; witness; orbits_cache = Atomic.make None }

(* the trivial group is stateless (its orbit cache, if ever forced, holds
   the identity partition), so one value per small order is shared by
   every rigid graph in a sweep instead of allocating a fresh record *)
let trivial_pool = Array.init 16 (fun n -> make n (Explicit []))
let trivial n = if n < 16 then trivial_pool.(n) else make n (Explicit [])

(* star transpositions (v, min of v's class) span each class, so they
   generate exactly the product of class-symmetric groups the twin scan
   witnessed — materialized only for consumers that want concrete group
   elements (the UCG pruner, the self check) *)
let generators t =
  match t.witness with
  | Explicit gens -> gens
  | Twins { classes; _ } ->
    let n = t.n in
    let gens = ref [] in
    for v = n - 1 downto 1 do
      let c = classes.(v) in
      if c <> v then begin
        let gen = Array.init n Fun.id in
        gen.(c) <- v;
        gen.(v) <- c;
        gens := gen :: !gens
      end
    done;
    !gens

let is_trivial t =
  match t.witness with
  | Explicit [] -> true
  | Explicit _ | Twins _ -> false

let twin_partition t =
  match t.witness with
  | Twins { classes; second } -> Some (classes, second)
  | Explicit _ -> None

(* Twin classes pin each pair orbit in O(1): the generated group moves
   vertices freely within each class and nowhere else, so unordered pairs
   are equivalent iff their class pairs match, and the representative of
   {i, j} is the lexicographically least pair of the same type — the two
   class minima for distinct classes, the two smallest class members for
   a within-class pair. *)
let orbits_of_classes n (cls : int array) (second : int array) =
  let np = n * (n - 1) / 2 in
  let orbit_of_pair = Array.make np 0 in
  let nreps = ref 0 in
  let t = ref 0 in
  for j = 1 to n - 1 do
    let cj = cls.(j) in
    for i = 0 to j - 1 do
      let ci = cls.(i) in
      let r =
        if ci <> cj then Canon.pair_index ci cj else Canon.pair_index ci second.(ci)
      in
      orbit_of_pair.(!t) <- r;
      if r = !t then incr nreps;
      incr t
    done
  done;
  let reps = Array.make !nreps 0 in
  let k = ref 0 in
  for t = 0 to np - 1 do
    if orbit_of_pair.(t) = t then begin
      reps.(!k) <- t;
      incr k
    end
  done;
  (reps, orbit_of_pair)

let edge_orbits t =
  match Atomic.get t.orbits_cache with
  | Some eo -> eo
  | None ->
    let reps, orbit_of_pair =
      match t.witness with
      | Twins { classes; second } -> orbits_of_classes t.n classes second
      | Explicit gens -> Canon.edge_orbits t.n gens
    in
    let eo = { reps; orbit_of_pair } in
    Atomic.set t.orbits_cache (Some eo);
    eo

(* ---- the pair traversal --------------------------------------------------
   The one place a subgroup becomes the set of pairs a scan evaluates:
   every orbit-quotiented loop runs its per-pair body through here, so
   the representative rule lives in this module only.  Pairs come in
   lexicographic (i < j) order, one per orbit, each the orbit's
   lexicographically least member.  The flag is set only where the
   subgroup is known to hold the transposition (i j), which makes the two
   endpoints' per-vertex values equal so one sweep serves both.

   - trivial: every pair, a plain double loop (the rigid fast path);
   - twins: the O(1) class test — rows whose [i] is not its class
     minimum are skipped whole, and a within-class pair is flagged;
   - explicit generators: the cached orbit table, flag never set. *)
let iter_pair_reps t f =
  let n = t.n in
  match t.witness with
  | Explicit [] ->
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        f i j false
      done
    done
  | Twins { classes; second } ->
    for i = 0 to n - 2 do
      if classes.(i) = i then begin
        let snd_i = second.(i) in
        for j = i + 1 to n - 1 do
          let cj = classes.(j) in
          if cj = i then begin
            if j = snd_i then f i j true
          end
          else if cj = j then f i j false
        done
      end
    done
  | Explicit _ ->
    let orb = (edge_orbits t).orbit_of_pair in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let p = Canon.pair_index i j in
        if orb.(p) = p then f i j false
      done
    done

(* ---- opt-out switch ------------------------------------------------------
   One process-wide flag: the CLI's --no-orbit-quotient and the
   NETFORM_NO_ORBIT_QUOTIENT env var make every auto-detecting entry
   point pass the trivial subgroup (every pair), so a suspected mis-propagation
   can be bisected in the field.  Set before parallel work starts (the
   CLI does); the sweeps only read it. *)
let quotient_disabled_env =
  match Sys.getenv_opt "NETFORM_NO_ORBIT_QUOTIENT" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let quotient_on = ref (not quotient_disabled_env)
let quotient_enabled () = !quotient_on
let set_quotient_enabled b = quotient_on := b

(* ---- detection tiers -----------------------------------------------------
   [detect_twins] is the sweep tier: a per-graph cost of ~n^2 word
   compares, far below one edge toggle, finding the automorphisms that
   actually occur in bulk enumeration (twin vertices — equal rows modulo
   the pair itself).  [detect_full] is the one-off tier: the exact group
   from the canonical-labeling search, worth its ~tens of microseconds
   only when a single annotation costs far more (gallery graphs, UCG
   orientation searches). *)

let detect_twins g =
  let n = Graph.order g in
  let cls = ref [||] and snd = ref [||] in
  for v = 1 to n - 1 do
    (* link v to its smallest twin u < v: one link per vertex is enough to
       wire each twin class's full orbit connectivity *)
    let u = ref 0 and twin = ref (-1) in
    while !twin < 0 && !u < v do
      (* rows equal modulo the pair itself — word-generic, so the twin
         tier keeps working past the one-word 62-vertex regime *)
      if Graph.twin_rows_equal g !u v then twin := !u else incr u
    done;
    if !twin >= 0 then begin
      if Array.length !cls = 0 then begin
        cls := Array.init n Fun.id;
        snd := Array.make n (-1)
      end;
      (* class labels are union-by-minimum: the twin's label is already
         its class minimum (labels only ever point downward and smaller
         vertices were processed first), so v joins that class directly;
         the first joiner is the class's second-smallest member *)
      let c = !cls.(!twin) in
      !cls.(v) <- c;
      if !snd.(c) < 0 then !snd.(c) <- v
    end
  done;
  if Array.length !cls = 0 then trivial n
  else make n (Twins { classes = !cls; second = !snd })

let detect_full g =
  let n = Graph.order g in
  match (Canon.full g).Canon.generators with
  | [] -> trivial n
  | gens -> make n (Explicit gens)

(* ---- capped closure ------------------------------------------------------
   The UCG orientation search prunes sibling branches with concrete group
   elements, not orbits, so it wants the generated set written out.  Any
   subset of genuine automorphisms is sound for pruning; the BFS stops at
   [cap] elements to bound the cost on huge groups (K_n via twins is
   S_n).  The identity is excluded — it can never certify a swap and
   trivially passes every pointwise-fix filter. *)
let group_elements ~cap t =
  let gens = generators t in
  if gens = [] || cap <= 0 then [||]
  else begin
    let n = t.n in
    let id = Array.init n Fun.id in
    let seen = Hashtbl.create 64 in
    Hashtbl.add seen id ();
    let out = ref [] in
    let count = ref 0 in
    let queue = Queue.create () in
    Queue.add id queue;
    (try
       while not (Queue.is_empty queue) do
         let p = Queue.pop queue in
         List.iter
           (fun (gen : int array) ->
             let q = Array.init n (fun v -> gen.(p.(v))) in
             if not (Hashtbl.mem seen q) then begin
               Hashtbl.add seen q ();
               out := q :: !out;
               incr count;
               if !count >= cap then raise_notrace Exit;
               Queue.add q queue
             end)
           gens
       done
     with Exit -> ());
    Array.of_list !out
  end

(* ---- sanity check --------------------------------------------------------
   Used by the test suite on the named gallery: a wrong union-find should
   fail loudly here rather than silently mis-propagate intervals.  Checks
   that every generator is an automorphism of [g], that the orbit sizes
   partition the C(n,2) pairs, that edges only share orbits with edges,
   and — orbit-stabilizer — that every orbit size divides the group
   order reported by the independent backtracking counter. *)
let self_check g t =
  let n = Graph.order g in
  if n <> t.n then failwith "Symmetry.self_check: order mismatch";
  List.iter
    (fun (gen : int array) ->
      let sorted = Array.copy gen in
      Array.sort compare sorted;
      if sorted <> Array.init n Fun.id then
        failwith "Symmetry.self_check: generator is not a permutation";
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Graph.has_edge g i j <> Graph.has_edge g gen.(i) gen.(j) then
            failwith "Symmetry.self_check: generator is not an automorphism"
        done
      done)
    (generators t);
  let { reps; orbit_of_pair } = edge_orbits t in
  let np = n * (n - 1) / 2 in
  if Array.length orbit_of_pair <> np then
    failwith "Symmetry.self_check: orbit_of_pair length";
  let sizes = Hashtbl.create 16 in
  let edge_of = Array.make np false in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      edge_of.(Canon.pair_index i j) <- Graph.has_edge g i j
    done
  done;
  Array.iteri
    (fun t_idx r ->
      if orbit_of_pair.(r) <> r then
        failwith "Symmetry.self_check: representative is not a fixed point";
      if edge_of.(t_idx) <> edge_of.(r) then
        failwith "Symmetry.self_check: orbit mixes edges and non-edges";
      Hashtbl.replace sizes r (1 + Option.value ~default:0 (Hashtbl.find_opt sizes r)))
    orbit_of_pair;
  if Hashtbl.length sizes <> Array.length reps then
    failwith "Symmetry.self_check: reps disagree with orbit_of_pair";
  let total = Hashtbl.fold (fun _ s acc -> s + acc) sizes 0 in
  if total <> np then failwith "Symmetry.self_check: orbit sizes do not partition pairs";
  let aut = Canon.automorphism_count g in
  Hashtbl.iter
    (fun _ s ->
      if aut mod s <> 0 then
        failwith
          (Printf.sprintf
             "Symmetry.self_check: orbit size %d does not divide |Aut| = %d" s aut))
    sizes
