module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

type owned = Bitset.t

(* ---- persistent reference path ------------------------------------------
   Straight off the definitions, over persistent graphs: retained as the
   public one-off entry points ([accepts], [acceptance_interval]) and as
   the reference that the differential tests compare the workspace kernel
   against ([nash_alpha_set_reference]). *)

(* The graph player i faces after discarding its own purchases: edges
   bought by others survive. *)
let base_graph g i ~owned = Bitset.fold (fun j acc -> Graph.remove_edge acc i j) owned g

(* Buying an edge that already exists is strictly dominated, so deviation
   targets range over the non-neighbors of the base graph. *)
let candidates base i =
  Bitset.diff (Bitset.remove i (Bitset.full (Graph.order base))) (Graph.neighbors base i)

let with_targets base i targets = Bitset.fold (fun j acc -> Graph.add_edge acc i j) targets base

(* cost(k0, D0) <= cost(k1, D1) at link cost α, with infinite distance
   sums compared as infinite costs *)
let cost_le alpha (k0, d0) (k1, d1) =
  match d0, d1 with
  | Ext_int.Fin d0, Ext_int.Fin d1 ->
    (* α(k0 - k1) <= d1 - d0 *)
    Rat.(mul alpha (of_int (k0 - k1)) <= of_int (d1 - d0))
  | Ext_int.Fin _, Ext_int.Inf -> true
  | Ext_int.Inf, Ext_int.Fin _ -> false
  | Ext_int.Inf, Ext_int.Inf -> true

let accepts ~alpha g i ~owned =
  let base = base_graph g i ~owned in
  let current = (Bitset.cardinal owned, Bfs.distance_sum g i) in
  let ok = ref true in
  Nf_util.Subset.iter_subsets (candidates base i) (fun targets ->
      if !ok then begin
        let deviation =
          (Bitset.cardinal targets, Bfs.distance_sum (with_targets base i targets) i)
        in
        if not (cost_le alpha current deviation) then ok := false
      end);
  !ok

let acceptance_interval g i ~owned =
  let d0 =
    match Bfs.distance_sum g i with
    | Ext_int.Fin d -> d
    | Ext_int.Inf -> invalid_arg "Ucg.acceptance_interval: player disconnected"
  in
  let k0 = Bitset.cardinal owned in
  let base = base_graph g i ~owned in
  let result = ref (Interval.open_closed Rat.zero Interval.Pos_inf) in
  Nf_util.Subset.iter_subsets (candidates base i) (fun targets ->
      if not (Interval.is_empty !result) then begin
        match Bfs.distance_sum (with_targets base i targets) i with
        | Ext_int.Inf -> () (* deviation has infinite cost: never binding *)
        | Ext_int.Fin dt ->
          let k = Bitset.cardinal targets in
          (* constraint: α·k0 + d0 <= α·k + dt *)
          let constraint_interval =
            if k > k0 then
              (* α >= (d0 - dt)/(k - k0) *)
              Interval.make
                ~lo:(Interval.Finite (Rat.make (d0 - dt) (k - k0)))
                ~lo_closed:true ~hi:Interval.Pos_inf ~hi_closed:false
            else if k < k0 then
              (* α <= (dt - d0)/(k0 - k) *)
              Interval.make ~lo:Interval.Neg_inf ~lo_closed:false
                ~hi:(Interval.Finite (Rat.make (dt - d0) (k0 - k)))
                ~hi_closed:true
            else if dt >= d0 then Interval.full
            else Interval.empty
          in
          result := Interval.inter !result constraint_interval
      end);
  !result

(* ---- workspace kernel twins ---------------------------------------------
   Same semantics against a loaded Kernel workspace: the base graph is two
   xors per owned edge instead of a persistent rebuild, every deviation is
   toggled on/off around one allocation-free sweep, and the acceptance
   interval is accumulated as integer fraction bounds (numerator,
   denominator > 0, closedness) instead of a chain of boxed Interval
   intersections — the bound updates are the same order-independent
   max/min folds, so the resulting intervals are structurally identical. *)

let inf = Kernel.inf

let candidates_ws ws v =
  Bitset.diff (Bitset.remove v (Bitset.full (Kernel.order ws))) (Kernel.neighbors ws v)

let cost_le_i alpha ~k0 ~d0 ~k ~dt =
  if d0 = inf then dt = inf
  else dt = inf || Rat.num alpha * (k0 - k) <= (dt - d0) * Rat.den alpha

(* [ws] must hold the full graph; restored on exit. *)
let accepts_ws ~alpha ws v ~owned =
  let k0 = Bitset.cardinal owned in
  let d0 = Kernel.distance_sum_from ws v in
  (* strip v's own purchases to get the deviation base (mask to actual
     neighbors so a stray non-edge in [owned] is ignored, like the
     reference's remove_edge no-op) *)
  let strip = Bitset.inter owned (Kernel.neighbors ws v) in
  Bitset.iter (fun j -> Kernel.toggle ws v j) strip;
  let ok = ref true in
  (try
     Nf_util.Subset.iter_subsets (candidates_ws ws v) (fun targets ->
         Bitset.iter (fun j -> Kernel.toggle ws v j) targets;
         let dt = Kernel.distance_sum_from ws v in
         Bitset.iter (fun j -> Kernel.toggle ws v j) targets;
         if not (cost_le_i alpha ~k0 ~d0 ~k:(Bitset.cardinal targets) ~dt) then begin
           ok := false;
           raise_notrace Exit
         end)
   with Exit -> ());
  Bitset.iter (fun j -> Kernel.toggle ws v j) strip;
  !ok

(* [ws] must hold the full graph; restored on exit.  Raw-bound core of the
   acceptance interval: writes [lo_n; lo_d; lo_c; hi_n; hi_d; hi_c] into
   [out] (lo = lo_n/lo_d with lo_d > 0, hi_d = 0 meaning +∞, closedness
   as 0/1) and returns [false] when some equal-cardinality deviation
   strictly improves the distances (no α helps).  The orbit-quotient
   orientation search consumes the bounds directly, without boxing them
   into an [Interval.t] per lookup. *)
let acceptance_bounds_ws ws v ~owned ~(out : int array) =
  let d0 = Kernel.distance_sum_from ws v in
  if d0 = inf then invalid_arg "Ucg.acceptance_interval: player disconnected";
  let k0 = Bitset.cardinal owned in
  let strip = Bitset.inter owned (Kernel.neighbors ws v) in
  Bitset.iter (fun j -> Kernel.toggle ws v j) strip;
  (* running bounds of the intersection, starting from (0, +inf]:
     lo = lo_n/lo_d (lo_d > 0), hi = hi_n/hi_d with hi_d = 0 meaning +inf;
     ties keep the existing closedness AND the constraint's (constraints
     are always closed, so a tie is a no-op — except against the open
     initial lo = 0). *)
  let lo_n = ref 0
  and lo_d = ref 1
  and lo_c = ref false in
  let hi_n = ref 0
  and hi_d = ref 0
  and hi_c = ref false in
  let empty = ref false in
  (try
     Nf_util.Subset.iter_subsets (candidates_ws ws v) (fun targets ->
         Bitset.iter (fun j -> Kernel.toggle ws v j) targets;
         let dt = Kernel.distance_sum_from ws v in
         Bitset.iter (fun j -> Kernel.toggle ws v j) targets;
         if dt <> inf then begin
           (* constraint: α·k0 + d0 <= α·k + dt *)
           let k = Bitset.cardinal targets in
           if k > k0 then begin
             (* α >= (d0 - dt)/(k - k0), closed *)
             let n = d0 - dt
             and d = k - k0 in
             let c = compare (n * !lo_d) (!lo_n * d) in
             if c > 0 then begin
               lo_n := n;
               lo_d := d;
               lo_c := true
             end
           end
           else if k < k0 then begin
             (* α <= (dt - d0)/(k0 - k), closed *)
             let n = dt - d0
             and d = k0 - k in
             if !hi_d = 0 || compare (n * !hi_d) (!hi_n * d) < 0 then begin
               hi_n := n;
               hi_d := d;
               hi_c := true
             end
           end
           else if dt < d0 then begin
             (* same purchase count, strictly better distances: no α helps *)
             empty := true;
             raise_notrace Exit
           end
         end)
   with Exit -> ());
  Bitset.iter (fun j -> Kernel.toggle ws v j) strip;
  if !empty then false
  else begin
    out.(0) <- !lo_n;
    out.(1) <- !lo_d;
    out.(2) <- (if !lo_c then 1 else 0);
    out.(3) <- !hi_n;
    out.(4) <- !hi_d;
    out.(5) <- (if !hi_c then 1 else 0);
    true
  end

let acceptance_interval_ws ws v ~owned =
  let out = Array.make 6 0 in
  if not (acceptance_bounds_ws ws v ~owned ~out) then Interval.empty
  else
    Interval.make
      ~lo:(Interval.Finite (Rat.make out.(0) out.(1)))
      ~lo_closed:(out.(2) = 1)
      ~hi:(if out.(4) = 0 then Interval.Pos_inf else Interval.Finite (Rat.make out.(3) out.(4)))
      ~hi_closed:(out.(5) = 1)

let best_response ~alpha g i ~owned =
  Kernel.with_loaded g (fun ws ->
      let strip = Bitset.inter owned (Kernel.neighbors ws i) in
      Bitset.iter (fun j -> Kernel.toggle ws i j) strip;
      let eval targets =
        Bitset.iter (fun j -> Kernel.toggle ws i j) targets;
        let dt = Kernel.distance_sum_from ws i in
        Bitset.iter (fun j -> Kernel.toggle ws i j) targets;
        (Bitset.cardinal targets, dt)
      in
      (* cost(k, d) = α·k + d with d possibly ∞ (inf); strictly-better by
         exact cross-multiplication:
         α·k1 + d1 < α·k0 + d0 ⟺ num·(k1 − k0) < (d0 − d1)·den *)
      let better (k1, d1) (k0, d0) =
        if d1 = inf then false
        else d0 = inf || Rat.num alpha * (k1 - k0) < (d0 - d1) * Rat.den alpha
      in
      let best = ref owned in
      let best_eval = ref (eval owned) in
      Nf_util.Subset.iter_subsets (candidates_ws ws i) (fun targets ->
          let e = eval targets in
          if better e !best_eval then begin
            best := targets;
            best_eval := e
          end);
      let k, d = !best_eval in
      (* the full candidate set makes i adjacent to every other vertex, so
         the minimum is always finite *)
      assert (d <> inf);
      (!best, Rat.add (Rat.mul alpha (Rat.of_int k)) (Rat.of_int d)))

(* --- orientation search ------------------------------------------------ *)

(* Shared structure: assign each edge to an endpoint; as soon as a vertex
   has all its incident edges decided, test it (accept/interval) and
   prune.  [judge] abstracts over the per-α boolean check and the exact
   interval check. *)
let search_orientations (type verdict) g ~(top : verdict)
    ~(judge : int -> owned -> verdict -> verdict option)
    ~(emit : verdict -> unit) =
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
  (* vertices with no edges are judged once, up front *)
  let rec judge_isolated v acc =
    if v >= n then Some acc
    else if remaining.(v) = 0 then
      match judge v Bitset.empty acc with
      | Some acc -> judge_isolated (v + 1) acc
      | None -> None
    else judge_isolated (v + 1) acc
  in
  let rec assign e acc =
    if e >= m then emit acc
    else begin
      let i, j = edges.(e) in
      let try_owner owner other =
        owned_now.(owner) <- Bitset.add other owned_now.(owner);
        remaining.(i) <- remaining.(i) - 1;
        remaining.(j) <- remaining.(j) - 1;
        let verdict =
          let after_i =
            if remaining.(i) = 0 then judge i owned_now.(i) acc else Some acc
          in
          match after_i with
          | None -> None
          | Some acc -> if remaining.(j) = 0 then judge j owned_now.(j) acc else Some acc
        in
        (match verdict with
        | Some acc -> assign (e + 1) acc
        | None -> ());
        owned_now.(owner) <- Bitset.remove other owned_now.(owner);
        remaining.(i) <- remaining.(i) + 1;
        remaining.(j) <- remaining.(j) + 1
      in
      try_owner i j;
      try_owner j i
    end
  in
  match judge_isolated 0 top with
  | None -> ()
  | Some acc -> if m = 0 then emit acc else assign 0 acc

(* cheap orientation-independent necessary conditions *)
let passes_necessary_conditions ~alpha g =
  Kernel.with_loaded g (fun ws ->
      let n = Kernel.order ws in
      let base = Kernel.all_distance_sums ws in
      let num = Rat.num alpha
      and den = Rat.den alpha in
      let ok = ref true in
      (try
         (* buying a missing link on top of the current strategy must not
            strictly improve either endpoint: α >= D(G) - D(G+ij) *)
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if not (Kernel.has_edge ws i j) then begin
               Kernel.toggle ws i j;
               let check a =
                 let d1 = Kernel.distance_sum_from ws a in
                 if d1 <> inf && (base.(a) = inf || num < (base.(a) - d1) * den) then begin
                   ok := false;
                   Kernel.toggle ws i j;
                   raise_notrace Exit
                 end
               in
               check i;
               check j;
               Kernel.toggle ws i j
             end
           done
         done;
         (* whichever endpoint owns an edge must tolerate it: some
            endpoint's single-drop loss must reach α *)
         for i = 0 to n - 2 do
           for j = i + 1 to n - 1 do
             if Kernel.has_edge ws i j then begin
               Kernel.toggle ws i j;
               let tolerates a =
                 let d1 = Kernel.distance_sum_from ws a in
                 base.(a) = inf || d1 = inf || num <= (d1 - base.(a)) * den
               in
               let t = tolerates i || tolerates j in
               Kernel.toggle ws i j;
               if not t then begin
                 ok := false;
                 raise_notrace Exit
               end
             end
           done
         done
       with Exit -> ());
      !ok)

let is_nash_graph ~alpha g =
  passes_necessary_conditions ~alpha g
  && Kernel.with_loaded g (fun ws ->
         let memo = Hashtbl.create 64 in
         let accepts_memo v owned =
           let key = (v, owned) in
           match Hashtbl.find_opt memo key with
           | Some verdict -> verdict
           | None ->
             let verdict = accepts_ws ~alpha ws v ~owned in
             Hashtbl.add memo key verdict;
             verdict
         in
         let found = ref false in
         (let judge v owned () = if !found || not (accepts_memo v owned) then None else Some () in
          let emit () = found := true in
          search_orientations g ~top:() ~judge ~emit);
         !found)

let is_nash_graph_f ~alpha g =
  let denom = 4096 in
  let scaled = alpha *. float_of_int denom in
  if Float.is_integer scaled then is_nash_graph ~alpha:(Rat.make (int_of_float scaled) denom) g
  else invalid_arg "Ucg.is_nash_graph_f: alpha not dyadic with denominator <= 4096"

let is_nash_orientation ~alpha g ~owner =
  let n = Graph.order g in
  let owned_of = Array.make n Bitset.empty in
  Graph.iter_edges g (fun i j ->
      let o = owner i j in
      if o <> i && o <> j then invalid_arg "Ucg.is_nash_orientation: owner not an endpoint";
      let other = if o = i then j else i in
      owned_of.(o) <- Bitset.add other owned_of.(o));
  Kernel.with_loaded g (fun ws ->
      let rec go v = v >= n || (accepts_ws ~alpha ws v ~owned:owned_of.(v) && go (v + 1)) in
      go 0)

(* Coverage pruning ([~prune:true]): every leaf below a node emits a
   subset of the node's running interval, so once that interval lies
   inside the union of the pieces emitted so far, the subtree can only
   re-emit covered points and is cut.  [Union.of_list] merges touching
   ranges, so the union's canonical form depends on the point set alone
   and the pruned walk's result is structurally identical to the
   exhaustive one.  The reference runs with [~prune:false]. *)
let nash_alpha_set_gen ~prune ~interval_of g =
  if not (Nf_graph.Connectivity.is_connected g) || Graph.order g = 0 then
    Interval.Union.empty
  else begin
    let memo = Hashtbl.create 64 in
    let interval_memo v owned =
      let key = (v, owned) in
      match Hashtbl.find_opt memo key with
      | Some interval -> interval
      | None ->
        let interval = interval_of v owned in
        Hashtbl.add memo key interval;
        interval
    in
    let covered = ref Interval.Union.empty in
    let judge v owned current =
      let refined = Interval.inter current (interval_memo v owned) in
      if Interval.is_empty refined || (prune && Interval.Union.covers !covered refined) then
        None
      else Some refined
    in
    let emit interval = covered := Interval.Union.add interval !covered in
    search_orientations g ~top:(Interval.open_closed Rat.zero Interval.Pos_inf) ~judge
      ~emit;
    !covered
  end

let nash_alpha_set_pruned ws g =
  nash_alpha_set_gen ~prune:true
    ~interval_of:(fun v owned -> acceptance_interval_ws ws v ~owned)
    g

(* ---- orbit-quotient orientation search ----------------------------------
   Two symmetry dividends on top of the plain walk, both exact:

   1. Sibling-branch pruning by live group elements.  Walking the edge
      list in fixed order, maintain the subset of enumerated automorphisms
      that fix every already-assigned arc pointwise (a swap-to-front
      prefix of one index array — the set at each depth survives deeper
      reorderings).  At edge {i,j}, if some live σ swaps i and j, then σ
      maps the owner-i subtree onto the owner-j subtree leaf-for-leaf, and
      acceptance intervals are isomorphism-invariant, so the skipped
      subtree would emit exactly the pieces the kept one does.

   2. An allocation-free walk.  The per-(vertex, owned) acceptance
      intervals live in lazily-filled integer tables indexed by compact
      owned-masks over each vertex's neighbor list, and the running
      intersection is a file of per-depth integer registers compared by
      exact cross-multiplication — no hashing and no boxed intervals until
      a leaf emits a piece.  Piece construction goes through the same
      [Rat.make]/[Interval.make] normalization as the plain path, and
      [Union.add] canonicalizes the collection, so the result is
      structurally identical to the unquotiented walk's.  The coverage
      prune (see [nash_alpha_set_gen]) runs against an integer mirror of
      the emitted union, so it allocates only when a leaf grows it. *)

let closure_cap m = if m < 10 then 32 else 1024

(* tables hold one slot per (vertex, subset of incident edges) *)
let table_budget = 1 lsl 20

let nash_alpha_set_quotient_ws ws sym g =
  let n = Graph.order g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let elems = Symmetry.group_elements ~cap:(closure_cap m) sym in
  let nelems = Array.length elems in
  let live = Array.init nelems Fun.id in
  let live_len = Array.make (m + 2) nelems in
  let nbrs =
    Array.init n (fun v -> Array.of_list (Bitset.elements (Kernel.neighbors ws v)))
  in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + (1 lsl Array.length nbrs.(v))
  done;
  let tsize = off.(n) in
  (* state: 0 unknown, 1 empty, 2 known; cl: bit 0 lo closed, bit 1 hi *)
  let state = Bytes.make tsize '\000' in
  let t_cl = Bytes.make tsize '\000' in
  let t_lo_n = Array.make tsize 0
  and t_lo_d = Array.make tsize 1
  and t_hi_n = Array.make tsize 0
  and t_hi_d = Array.make tsize 0 in
  let bounds = Array.make 6 0 in
  let lookup v owned =
    let nb = nbrs.(v) in
    let mask = ref 0 in
    for k = 0 to Array.length nb - 1 do
      if Bitset.mem nb.(k) owned then mask := !mask lor (1 lsl k)
    done;
    let idx = off.(v) + !mask in
    if Bytes.get state idx = '\000' then
      if acceptance_bounds_ws ws v ~owned ~out:bounds then begin
        Bytes.set state idx '\002';
        t_lo_n.(idx) <- bounds.(0);
        t_lo_d.(idx) <- bounds.(1);
        t_hi_n.(idx) <- bounds.(3);
        t_hi_d.(idx) <- bounds.(4);
        Bytes.set t_cl idx (Char.chr (bounds.(2) lor (bounds.(5) lsl 1)))
      end
      else Bytes.set state idx '\001';
    idx
  in
  (* per-depth register file for the running intersection *)
  let r_lo_n = Array.make (m + 2) 0
  and r_lo_d = Array.make (m + 2) 1
  and r_hi_n = Array.make (m + 2) 0
  and r_hi_d = Array.make (m + 2) 0 in
  let r_lo_c = Bytes.make (m + 2) '\000'
  and r_hi_c = Bytes.make (m + 2) '\000' in
  let copy_slot s d =
    r_lo_n.(d) <- r_lo_n.(s);
    r_lo_d.(d) <- r_lo_d.(s);
    r_hi_n.(d) <- r_hi_n.(s);
    r_hi_d.(d) <- r_hi_d.(s);
    Bytes.set r_lo_c d (Bytes.get r_lo_c s);
    Bytes.set r_hi_c d (Bytes.get r_hi_c s)
  in
  (* intersect slot [s] with table entry [idx]; false = now empty.  Same
     max/min/closedness semantics as Interval.inter, in integer space. *)
  let inter_slot s idx =
    let cl = Char.code (Bytes.get t_cl idx) in
    let c = compare (t_lo_n.(idx) * r_lo_d.(s)) (r_lo_n.(s) * t_lo_d.(idx)) in
    if c > 0 then begin
      r_lo_n.(s) <- t_lo_n.(idx);
      r_lo_d.(s) <- t_lo_d.(idx);
      Bytes.set r_lo_c s (if cl land 1 = 1 then '\001' else '\000')
    end
    else if c = 0 && cl land 1 = 0 then Bytes.set r_lo_c s '\000';
    if t_hi_d.(idx) > 0 then
      if r_hi_d.(s) = 0 then begin
        r_hi_n.(s) <- t_hi_n.(idx);
        r_hi_d.(s) <- t_hi_d.(idx);
        Bytes.set r_hi_c s (if cl land 2 = 2 then '\001' else '\000')
      end
      else begin
        let c = compare (t_hi_n.(idx) * r_hi_d.(s)) (r_hi_n.(s) * t_hi_d.(idx)) in
        if c < 0 then begin
          r_hi_n.(s) <- t_hi_n.(idx);
          r_hi_d.(s) <- t_hi_d.(idx);
          Bytes.set r_hi_c s (if cl land 2 = 2 then '\001' else '\000')
        end
        else if c = 0 && cl land 2 = 0 then Bytes.set r_hi_c s '\000'
      end;
    if r_hi_d.(s) = 0 then true
    else begin
      let c = compare (r_lo_n.(s) * r_hi_d.(s)) (r_hi_n.(s) * r_lo_d.(s)) in
      c < 0
      || (c = 0 && Bytes.get r_lo_c s = '\001' && Bytes.get r_hi_c s = '\001')
    end
  in
  let remaining = Array.make n 0 in
  Array.iter
    (fun (i, j) ->
      remaining.(i) <- remaining.(i) + 1;
      remaining.(j) <- remaining.(j) + 1)
    edges;
  let owned_now = Array.make n Bitset.empty in
  (* the union emitted so far, mirrored into integer registers for the
     coverage prune: range r is [cov.(6r) .. cov.(6r+5)] = lo_n, lo_d,
     lo closed, hi_n, hi_d (0 = +inf), hi closed *)
  let covered = ref Interval.Union.empty in
  let cov = ref (Array.make 24 0)
  and ncov = ref 0 in
  let refresh_cov () =
    let ranges = Interval.Union.to_list !covered in
    ncov := List.length ranges;
    if 6 * !ncov > Array.length !cov then cov := Array.make (12 * !ncov) 0;
    let b = !cov in
    List.iteri
      (fun r range ->
        match Interval.bounds range with
        | Some (Interval.Finite lo, lo_c, hi, hi_c) ->
          let o = 6 * r in
          b.(o) <- Rat.num lo;
          b.(o + 1) <- Rat.den lo;
          b.(o + 2) <- Bool.to_int lo_c;
          (match hi with
          | Interval.Finite hi ->
            b.(o + 3) <- Rat.num hi;
            b.(o + 4) <- Rat.den hi
          | Interval.Neg_inf | Interval.Pos_inf -> b.(o + 4) <- 0);
          b.(o + 5) <- Bool.to_int hi_c
        | Some ((Interval.Neg_inf | Interval.Pos_inf), _, _, _) | None ->
          (* every piece starts inside (0, +inf] *)
          assert false)
      ranges
  in
  (* slot [s] lies inside covered range [r] or a later one *)
  let rec covered_from s r =
    r < !ncov
    && ((let b = !cov
         and o = 6 * r in
         let c = compare (b.(o) * r_lo_d.(s)) (r_lo_n.(s) * b.(o + 1)) in
         (c < 0 || (c = 0 && (b.(o + 2) = 1 || Bytes.get r_lo_c s = '\000')))
         && (b.(o + 4) = 0
            || r_hi_d.(s) > 0
               &&
               let c = compare (r_hi_n.(s) * b.(o + 4)) (b.(o + 3) * r_hi_d.(s)) in
               c < 0 || (c = 0 && (b.(o + 5) = 1 || Bytes.get r_hi_c s = '\000'))))
       || covered_from s (r + 1))
  in
  (* a leaf is only reached through an uncovered judge, so every emit
     grows the union *)
  let emit s =
    covered :=
      Interval.Union.add
        (Interval.make
           ~lo:(Interval.Finite (Rat.make r_lo_n.(s) r_lo_d.(s)))
           ~lo_closed:(Bytes.get r_lo_c s = '\001')
           ~hi:
             (if r_hi_d.(s) = 0 then Interval.Pos_inf
              else Interval.Finite (Rat.make r_hi_n.(s) r_hi_d.(s)))
           ~hi_closed:(Bytes.get r_hi_c s = '\001'))
        !covered;
    refresh_cov ()
  in
  let judge v s =
    let idx = lookup v owned_now.(v) in
    Bytes.get state idx <> '\001' && inter_slot s idx && not (covered_from s 0)
  in
  (* the live prefix at depth e holds the elements fixing every arc of the
     first e assignments pointwise; both branches of edge e induce the
     same child condition (σi = i and σj = j), so one filter serves both *)
  let filter_live e i j =
    let len = live_len.(e) in
    let kept = ref 0 in
    for k = 0 to len - 1 do
      let p = elems.(live.(k)) in
      if p.(i) = i && p.(j) = j then begin
        let tmp = live.(!kept) in
        live.(!kept) <- live.(k);
        live.(k) <- tmp;
        incr kept
      end
    done;
    live_len.(e + 1) <- !kept
  in
  let swap_exists e i j =
    let len = live_len.(e) in
    let rec go k =
      k < len
      &&
      let p = elems.(live.(k)) in
      (p.(i) = j && p.(j) = i) || go (k + 1)
    in
    go 0
  in
  let rec assign e =
    if e >= m then emit e
    else begin
      let i, j = edges.(e) in
      if nelems > 0 then filter_live e i j;
      let try_owner owner other =
        owned_now.(owner) <- Bitset.add other owned_now.(owner);
        remaining.(i) <- remaining.(i) - 1;
        remaining.(j) <- remaining.(j) - 1;
        copy_slot e (e + 1);
        let ok =
          (remaining.(i) > 0 || judge i (e + 1))
          && (remaining.(j) > 0 || judge j (e + 1))
        in
        if ok then assign (e + 1);
        owned_now.(owner) <- Bitset.remove other owned_now.(owner);
        remaining.(i) <- remaining.(i) + 1;
        remaining.(j) <- remaining.(j) + 1
      in
      try_owner i j;
      if not (nelems > 0 && swap_exists e i j) then try_owner j i
    end
  in
  (* top slot: (0, +inf], matching the plain walk's starting interval *)
  r_lo_n.(0) <- 0;
  r_lo_d.(0) <- 1;
  Bytes.set r_lo_c 0 '\000';
  r_hi_d.(0) <- 0;
  (* connected graphs with n >= 2 have no isolated vertices, and n <= 1
     never reaches this function (the subgroup is trivial there) *)
  assign 0;
  !covered

let nash_alpha_set_sym_ws ws sym g =
  Kernel.load ws g;
  if Symmetry.is_trivial sym then nash_alpha_set_pruned ws g
  else if not (Nf_graph.Connectivity.is_connected g) || Graph.order g = 0 then
    Interval.Union.empty
  else begin
    (* table budget: a vertex of degree d costs 2^d slots; graphs dense
       enough to blow it would not finish the 2^m walk either way, but
       fail back to the plain path rather than allocate absurdly *)
    let budget_ok =
      let total = ref 0 in
      (try
         for v = 0 to Graph.order g - 1 do
           total := !total + (1 lsl Graph.degree g v);
           if !total > table_budget then raise_notrace Exit
         done;
         true
       with Exit -> false)
    in
    if budget_ok then nash_alpha_set_quotient_ws ws sym g else nash_alpha_set_pruned ws g
  end

(* One-off entry point: auto-detect symmetry when the quotient is enabled.
   The orientation walk is 2^m, so on searches big enough to matter
   (m >= 10) the exact group from Canon.full is cheap by comparison;
   below that the twin scan costs well under a microsecond and the rigid
   fast path keeps asymmetric graphs on exactly the plain walk. *)
let nash_alpha_set g =
  Kernel.with_ws (fun ws ->
      let sym =
        if not (Symmetry.quotient_enabled ()) then Symmetry.trivial (Graph.order g)
        else if Graph.size g >= 10 then Symmetry.detect_full g
        else Symmetry.detect_twins g
      in
      nash_alpha_set_sym_ws ws sym g)

let nash_alpha_set_reference g =
  nash_alpha_set_gen ~prune:false ~interval_of:(fun v owned -> acceptance_interval g v ~owned) g
