module Graph = Nf_graph.Graph
module Bfs = Nf_graph.Bfs
module Kernel = Nf_graph.Kernel
module Symmetry = Nf_iso.Symmetry
module Bitset = Nf_util.Bitset
module Ext_int = Nf_util.Ext_int
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

type owned = Bitset.t

(* ---- persistent path -------------------------------------------------------
   Straight off the definitions, over persistent graphs: the public
   one-off point check [accepts]. *)

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

(* ---- workspace kernel ----------------------------------------------------
   Acceptance against a loaded Kernel workspace: the base graph is two
   xors per owned edge instead of a persistent rebuild, every deviation is
   toggled on/off around one allocation-free sweep, and the acceptance
   interval is accumulated as integer fraction bounds (numerator,
   denominator > 0, closedness) by order-independent max/min folds,
   without boxing an Interval per constraint. *)

let inf = Kernel.inf

let candidates_ws ws v =
  Bitset.diff (Bitset.remove v (Bitset.full (Kernel.order ws))) (Kernel.neighbors ws v)

(* [ws] must hold the full graph; restored on exit.  Raw-bound core of the
   acceptance interval: writes [lo_n; lo_d; lo_c; hi_n; hi_d; hi_c] into
   [out] (lo = lo_n/lo_d with lo_d > 0, hi_d = 0 meaning +∞, closedness
   as 0/1) and returns [false] when some equal-cardinality deviation
   strictly improves the distances (no α helps).  The orientation walk
   consumes the bounds directly, without boxing them into an [Interval.t]
   per lookup. *)
let acceptance_bounds_ws ws v ~owned ~(out : int array) =
  let d0 = Kernel.distance_sum_from ws v in
  if d0 = inf then invalid_arg "Ucg.acceptance_bounds_ws: player disconnected";
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

let is_nash_orientation ~alpha g ~owner =
  let n = Graph.order g in
  let owned_of = Array.make n Bitset.empty in
  Graph.iter_edges g (fun i j ->
      let o = owner i j in
      if o <> i && o <> j then invalid_arg "Ucg.is_nash_orientation: owner not an endpoint";
      let other = if o = i then j else i in
      owned_of.(o) <- Bitset.add other owned_of.(o));
  let rec go v = v >= n || (accepts ~alpha g v ~owned:owned_of.(v) && go (v + 1)) in
  go 0

(* ---- the orientation walk ------------------------------------------------
   The production search, for every subgroup of [Aut(g)]:

   1. Coverage pruning.  Every leaf below a node emits a subset of the
      node's running interval, so once that interval lies inside the
      union of the pieces emitted so far, the subtree can only re-emit
      covered points and is cut.  [Union.of_list] merges touching ranges,
      so the union's canonical form depends on the point set alone and
      the pruned walk's result is structurally identical to the
      exhaustive walk's.

   2. Sibling-branch pruning by live group elements.  Walking the edge
      list in fixed order, maintain the subset of enumerated automorphisms
      that fix every already-assigned arc pointwise (a swap-to-front
      prefix of one index array — the set at each depth survives deeper
      reorderings).  At edge {i,j}, if some live σ swaps i and j, then σ
      maps the owner-i subtree onto the owner-j subtree leaf-for-leaf, and
      acceptance intervals are isomorphism-invariant, so the skipped
      subtree would emit exactly the pieces the kept one does.  The
      trivial subgroup has no elements, so the prune never fires.

   3. An allocation-free walk.  The per-(vertex, owned) acceptance
      intervals live in lazily-filled integer tables indexed by compact
      owned-masks over each vertex's neighbor list, and the running
      intersection is a file of per-depth integer registers compared by
      exact cross-multiplication — no hashing and no boxed intervals until
      a leaf emits a piece.  Piece construction goes through the
      [Rat.make]/[Interval.make] normalization, and [Union.add]
      canonicalizes the collection.  The coverage test runs
      against an integer mirror of the emitted union, so it allocates
      only when a leaf grows it. *)

let closure_cap m = if m < 10 then 32 else 1024

(* tables hold one slot per (vertex, subset of incident edges) *)
let table_budget = 1 lsl 20

let orientation_walk ws sym g =
  let n = Graph.order g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let elems = Symmetry.group_elements ~cap:(closure_cap m) sym in
  let live = Array.init (Array.length elems) Fun.id in
  let live_len = Array.make (m + 2) (Array.length elems) in
  let nbrs =
    Array.init n (fun v -> Array.of_list (Bitset.elements (Kernel.neighbors ws v)))
  in
  (* a vertex of degree d gets a table of 2^d slots at off.(v) while the
     tables fit the budget; a vertex left without one (off.(v) < 0)
     recomputes its bounds on each visit into the scratch slot *)
  let off = Array.make n (-1) in
  let used = ref 0 in
  for v = 0 to n - 1 do
    let d = Array.length nbrs.(v) in
    (* d < int_size - 1 keeps 1 lsl d positive *)
    if d < Sys.int_size - 1 && 1 lsl d <= table_budget - !used then begin
      off.(v) <- !used;
      used := !used + (1 lsl d)
    end
  done;
  let scratch = !used in
  let tsize = scratch + 1 in
  (* state: 0 unknown, 1 empty, 2 known; cl: bit 0 lo closed, bit 1 hi *)
  let state = Bytes.make tsize '\000' in
  let t_cl = Bytes.make tsize '\000' in
  let t_lo_n = Array.make tsize 0
  and t_lo_d = Array.make tsize 1
  and t_hi_n = Array.make tsize 0
  and t_hi_d = Array.make tsize 0 in
  let bounds = Array.make 6 0 in
  let fill idx v owned =
    if acceptance_bounds_ws ws v ~owned ~out:bounds then begin
      Bytes.set state idx '\002';
      t_lo_n.(idx) <- bounds.(0);
      t_lo_d.(idx) <- bounds.(1);
      t_hi_n.(idx) <- bounds.(3);
      t_hi_d.(idx) <- bounds.(4);
      Bytes.set t_cl idx (Char.chr (bounds.(2) lor (bounds.(5) lsl 1)))
    end
    else Bytes.set state idx '\001'
  in
  let lookup v owned =
    if off.(v) < 0 then begin
      fill scratch v owned;
      scratch
    end
    else begin
      let nb = nbrs.(v) in
      let mask = ref 0 in
      for k = 0 to Array.length nb - 1 do
        if Bitset.mem nb.(k) owned then mask := !mask lor (1 lsl k)
      done;
      let idx = off.(v) + !mask in
      if Bytes.get state idx = '\000' then fill idx v owned;
      idx
    end
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
      filter_live e i j;
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
      if not (swap_exists e i j) then try_owner j i
    end
  in
  (* top slot: (0, +inf], the running interval's start *)
  r_lo_n.(0) <- 0;
  r_lo_d.(0) <- 1;
  Bytes.set r_lo_c 0 '\000';
  r_hi_d.(0) <- 0;
  (* connected graphs with n >= 2 have no isolated vertices; at n = 1 the
     lone vertex accepts every α > 0, which the top slot already is *)
  assign 0;
  !covered

let nash_alpha_set_sym_ws ws sym g =
  Kernel.load ws g;
  if not (Nf_graph.Connectivity.is_connected g) || Graph.order g = 0 then
    Interval.Union.empty
  else orientation_walk ws sym g

(* One-off entry point: auto-detect symmetry when the quotient is enabled.
   The orientation walk is 2^m, so on searches big enough to matter
   (m >= 10) the exact group from Canon.full is cheap by comparison;
   below that the twin scan costs well under a microsecond. *)
let nash_alpha_set g =
  Kernel.with_ws (fun ws ->
      let sym =
        if not (Symmetry.quotient_enabled ()) then Symmetry.trivial (Graph.order g)
        else if Graph.size g >= 10 then Symmetry.detect_full g
        else Symmetry.detect_twins g
      in
      nash_alpha_set_sym_ws ws sym g)

let is_nash_graph ~alpha g = Interval.Union.mem alpha (nash_alpha_set g)
