module Bitset = Nf_util.Bitset
module Bw = Nf_util.Bitset_w

(* Adjacency and the per-vertex reach/front scratch live in flat slabs of
   [words] ints per vertex (62 bits per word, [Bitset_w] layout).  For
   n <= 62, words = 1 and a row is one int at offset [v] — exactly the
   historical single-word workspace — and every routine below dispatches
   to a copy of the one-word code, so the n <= 8 annotation hot paths
   (their bench rows, golden store bytes) are untouched by the
   multi-word generalization. *)
type t = {
  mutable n : int;
  mutable words : int;  (** slab words per row; 1 ⇔ n <= 62 (unless forced) *)
  mutable all : Bitset.t;  (** [Bitset.full n] when [words = 1], else unused *)
  mutable adj : int array;  (** [n * words] slab *)
  mutable sums : int array;
  mutable ecc : int array;
  mutable reach : int array;  (** [n * words] slab *)
  mutable front : int array;  (** [n * words] slab *)
  mutable seen1 : int array;  (** [words] scratch: single-source seen row *)
  mutable front1 : int array;  (** [words] scratch: single-source frontier *)
  mutable next1 : int array;  (** [words] scratch: one-round expansion *)
  mutable full : int array;  (** [words] mask of the [n] valid bits *)
  mutable rows : Bytes.t;  (** [n * n] 16-bit distance rows, grown on first use *)
}

let inf = max_int

let create ?(hint = 16) () =
  let cap = max hint 1 in
  {
    n = 0;
    words = 1;
    all = Bitset.empty;
    adj = Array.make cap 0;
    sums = Array.make cap 0;
    ecc = Array.make cap 0;
    reach = Array.make cap 0;
    front = Array.make cap 0;
    seen1 = Array.make 1 0;
    front1 = Array.make 1 0;
    next1 = Array.make 1 0;
    full = Array.make 1 0;
    rows = Bytes.empty;
  }

let ensure ws n words =
  let slab = n * words in
  if slab > Array.length ws.adj then begin
    let cap = max slab (2 * Array.length ws.adj) in
    ws.adj <- Array.make cap 0;
    ws.reach <- Array.make cap 0;
    ws.front <- Array.make cap 0
  end;
  if n > Array.length ws.sums then begin
    let cap = max n (2 * Array.length ws.sums) in
    ws.sums <- Array.make cap 0;
    ws.ecc <- Array.make cap 0
  end;
  if words > Array.length ws.seen1 then begin
    ws.seen1 <- Array.make words 0;
    ws.front1 <- Array.make words 0;
    ws.next1 <- Array.make words 0;
    ws.full <- Array.make words 0
  end

(* Differential-test hook: force the generic multi-word loops onto graphs
   small enough for the one-word fast path, so the two implementations can
   be pinned against each other on the same inputs. *)
let forced_min_words = ref 1
let set_min_words_for_testing w = forced_min_words := max 1 w

let setup ws n words =
  ensure ws n words;
  ws.n <- n;
  ws.words <- words;
  ws.all <- (if words = 1 then Bitset.full n else Bitset.empty);
  Bw.blit_full_mask ws.full 0 n words

let order ws = ws.n
let words ws = ws.words

let neighbors ws v =
  if ws.words > 1 then
    invalid_arg
      (Printf.sprintf
         "Kernel.neighbors: order %d > %d needs multi-word rows; use has_edge or \
          iter_neighbors"
         ws.n Bitset.max_size);
  ws.adj.(v)

let has_edge ws i j =
  if ws.words = 1 then ws.adj.(i) land (1 lsl j) <> 0
  else ws.adj.((i * ws.words) + Bw.word_of j) land Bw.bit_of j <> 0

let row_word ws v k = ws.adj.((v * ws.words) + k)
let iter_neighbors ws v f = Bw.iter f ws.adj (v * ws.words) ws.words
let degree ws v = Bw.cardinal ws.adj (v * ws.words) ws.words

let load ws g =
  let n = Graph.order g in
  let gw = Graph.words g in
  let words = max gw !forced_min_words in
  setup ws n words;
  for v = 0 to n - 1 do
    let off = v * words in
    for k = 0 to words - 1 do
      ws.adj.(off + k) <- (if k < gw then Graph.row_word g v k else 0)
    done
  done

let load_rows ws n row =
  if n < 0 || n > Bitset.max_size then
    invalid_arg
      (Printf.sprintf
         "Kernel.load_rows: order %d outside 0..%d (one-word rows; use load_edges \
          beyond %d vertices)"
         n Bitset.max_size Bitset.max_size);
  let words = max 1 !forced_min_words in
  setup ws n words;
  let mask = Bitset.full n in
  for v = 0 to n - 1 do
    let off = v * words in
    ws.adj.(off) <- Bitset.remove v (Bitset.inter (row v) mask);
    for k = 1 to words - 1 do
      ws.adj.(off + k) <- 0
    done
  done

let load_edges ws n iter =
  if n < 0 then invalid_arg "Kernel.load_edges: bad order";
  let words = max (Bw.words_for n) !forced_min_words in
  setup ws n words;
  Array.fill ws.adj 0 (n * words) 0;
  iter (fun i j ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Kernel.load_edges: vertex out of range";
      if i <> j then begin
        Bw.set ws.adj (i * words) j;
        Bw.set ws.adj (j * words) i
      end)

let toggle ws i j =
  if i = j then invalid_arg "Kernel.toggle: loop";
  if ws.words = 1 then begin
    (* one-word rows are bare ints: one xor per row flips presence both ways *)
    ws.adj.(i) <- ws.adj.(i) lxor (1 lsl j);
    ws.adj.(j) <- ws.adj.(j) lxor (1 lsl i)
  end
  else begin
    let w = ws.words in
    Bw.toggle ws.adj (i * w) j;
    Bw.toggle ws.adj (j * w) i
  end

(* ---------------- one-word fast path (n <= 62) ----------------
   The pre-multi-word kernel's loops: every value is an immediate int
   and a full BFS allocates nothing. *)

(* Index of an isolated bit [b] (a power of two), branch cascade instead of
   Bitset.min_elt's linear probe — this sits inside every frontier
   expansion. *)
let bit_index b =
  let k = if b land 0xFFFFFFFF = 0 then 32 else 0 in
  let b = b lsr k in
  let k2 = if b land 0xFFFF = 0 then 16 else 0 in
  let b = b lsr k2 in
  let k3 = if b land 0xFF = 0 then 8 else 0 in
  let b = b lsr k3 in
  let k4 = if b land 0xF = 0 then 4 else 0 in
  let b = b lsr k4 in
  let k5 = if b land 0x3 = 0 then 2 else 0 in
  let b = b lsr k5 in
  k + k2 + k3 + k4 + k5 + (b lsr 1)

(* Union of the adjacency rows of every vertex in [f]: the one-round
   frontier expansion.  Tail recursion over isolated low bits. *)
let rec expand_rows adj f acc =
  if f = 0 then acc
  else
    let b = f land -f in
    expand_rows adj (f lxor b) (acc lor adj.(bit_index b))

(* The single-source rounds are top-level recursions taking the rows as
   arguments: a local [go] capturing [adj] would allocate its closure on
   every call. *)
let rec sum_rounds_1 adj all seen front level sum =
  if front = 0 then if seen = all then sum else inf
  else
    let fresh = expand_rows adj front 0 land lnot seen in
    sum_rounds_1 adj all (seen lor fresh) fresh (level + 1)
      (sum + (level * Bitset.cardinal fresh))

let distance_sum_from_1 ws src =
  let s = Bitset.singleton src in
  sum_rounds_1 ws.adj ws.all s s 1 0

let rec reach_rounds_1 adj seen front level sum =
  if front = 0 then (sum, Bitset.cardinal seen)
  else
    let fresh = expand_rows adj front 0 land lnot seen in
    reach_rounds_1 adj (seen lor fresh) fresh (level + 1) (sum + (level * Bitset.cardinal fresh))

let reach_stats_1 ws src =
  let s = Bitset.singleton src in
  reach_rounds_1 ws.adj s s 1 0

(* Bit-parallel all-sources BFS: one reach bitset and one frontier bitset
   per vertex, every frontier expanded simultaneously each round, so the
   whole all-pairs sweep costs O(diameter) rounds of O(n) word operations
   (amortized: each vertex enters each frontier once).  Eccentricities fall
   out for free as the last round in which a source still found a fresh
   vertex. *)
let all_distance_sums_1 ws =
  let n = ws.n
  and adj = ws.adj
  and all = ws.all in
  let reach = ws.reach
  and front = ws.front
  and sums = ws.sums
  and ecc = ws.ecc in
  for v = 0 to n - 1 do
    let s = Bitset.singleton v in
    reach.(v) <- s;
    front.(v) <- s;
    sums.(v) <- 0;
    ecc.(v) <- 0
  done;
  let rec round_of v level changed =
    if v >= n then changed
    else begin
      let f = front.(v) in
      if f = 0 then round_of (v + 1) level changed
      else begin
        let fresh = expand_rows adj f 0 land lnot reach.(v) in
        front.(v) <- fresh;
        if fresh = 0 then round_of (v + 1) level changed
        else begin
          reach.(v) <- reach.(v) lor fresh;
          sums.(v) <- sums.(v) + (level * Bitset.cardinal fresh);
          ecc.(v) <- level;
          round_of (v + 1) level true
        end
      end
    end
  in
  let rec rounds level = if round_of 0 level false then rounds (level + 1) in
  rounds 1;
  for v = 0 to n - 1 do
    if reach.(v) <> all then begin
      sums.(v) <- inf;
      ecc.(v) <- inf
    end
  done;
  sums

(* ---------------- generic multi-word path (any n) ----------------
   The same frontier algebra with each row operation widened to a loop
   over [words] ints.  Scratch rows live in the workspace, so the generic
   BFS still allocates nothing per call. *)

(* union of the adjacency rows of every vertex set in the row at
   [foff] of [front] into the scratch row [next] *)
let expand_rows_w adj words front foff next =
  Array.fill next 0 words 0;
  for k = 0 to words - 1 do
    let base = k * Bw.bits_per_word in
    let w = ref front.(foff + k) in
    while !w <> 0 do
      let b = !w land - !w in
      let off = (base + bit_index b) * words in
      for t = 0 to words - 1 do
        next.(t) <- next.(t) lor adj.(off + t)
      done;
      w := !w lxor b
    done
  done

(* one generic BFS round over the single-source scratch rows: moves
   [fresh = expand(front) \ seen] into [front], ors it into [seen], and
   returns how many fresh vertices the round found *)
let sweep_round_w ws =
  let words = ws.words in
  let seen = ws.seen1
  and front = ws.front1
  and next = ws.next1 in
  expand_rows_w ws.adj words front 0 next;
  let cnt = ref 0 in
  for k = 0 to words - 1 do
    let f = next.(k) land lnot seen.(k) in
    front.(k) <- f;
    seen.(k) <- seen.(k) lor f;
    cnt := !cnt + Bw.popcount f
  done;
  !cnt

let start_single_source ws src =
  let words = ws.words in
  Array.fill ws.seen1 0 words 0;
  Array.fill ws.front1 0 words 0;
  Bw.set ws.seen1 0 src;
  Bw.set ws.front1 0 src

(* top-level recursions, as in the one-word path: no closure per call *)
let rec sum_rounds_w ws level sum count =
  let fresh = sweep_round_w ws in
  if fresh = 0 then if count = ws.n then sum else inf
  else sum_rounds_w ws (level + 1) (sum + (level * fresh)) (count + fresh)

let distance_sum_from_w ws src =
  start_single_source ws src;
  sum_rounds_w ws 1 0 1

let rec reach_rounds_w ws level sum count =
  let fresh = sweep_round_w ws in
  if fresh = 0 then (sum, count)
  else reach_rounds_w ws (level + 1) (sum + (level * fresh)) (count + fresh)

let reach_stats_w ws src =
  start_single_source ws src;
  reach_rounds_w ws 1 0 1

let all_distance_sums_w ws =
  let n = ws.n
  and words = ws.words in
  let adj = ws.adj
  and reach = ws.reach
  and front = ws.front
  and next = ws.next1
  and sums = ws.sums
  and ecc = ws.ecc in
  Array.fill reach 0 (n * words) 0;
  Array.fill front 0 (n * words) 0;
  for v = 0 to n - 1 do
    Bw.set reach (v * words) v;
    Bw.set front (v * words) v;
    sums.(v) <- 0;
    ecc.(v) <- 0
  done;
  let rec round_of v level changed =
    if v >= n then changed
    else begin
      let off = v * words in
      if Bw.is_empty_row front off words then round_of (v + 1) level changed
      else begin
        expand_rows_w adj words front off next;
        let cnt = ref 0 in
        for k = 0 to words - 1 do
          let f = next.(k) land lnot reach.(off + k) in
          front.(off + k) <- f;
          reach.(off + k) <- reach.(off + k) lor f;
          cnt := !cnt + Bw.popcount f
        done;
        if !cnt = 0 then round_of (v + 1) level changed
        else begin
          sums.(v) <- sums.(v) + (level * !cnt);
          ecc.(v) <- level;
          round_of (v + 1) level true
        end
      end
    end
  in
  let rec rounds level = if round_of 0 level false then rounds (level + 1) in
  rounds 1;
  let full = ws.full in
  for v = 0 to n - 1 do
    if not (Bw.equal_rows reach (v * words) full 0 words) then begin
      sums.(v) <- inf;
      ecc.(v) <- inf
    end
  done;
  sums

(* Distance rows: one single-source generic-words BFS per row, writing
   each round's fresh vertices at their level.  There is no one-word
   copy: the generic loop runs at [words = 1] unchanged, so one routine
   is tested at every order.  Entries are 16-bit so that an [n × n] slab
   stays a quarter of an int array. *)

let row_inf = 0xFFFF

let distance_rows ws =
  (* every finite distance is at most n − 1 < row_inf *)
  if ws.n > row_inf then
    invalid_arg
      (Printf.sprintf "Kernel.distance_rows: order %d > %d overflows 16-bit entries" ws.n
         row_inf);
  let bytes = 2 * ws.n * ws.n in
  if bytes > Bytes.length ws.rows then ws.rows <- Bytes.create bytes;
  ws.rows

let distances_from ws src =
  let n = ws.n
  and words = ws.words in
  let rows = distance_rows ws in
  let off = 2 * src * n in
  Bytes.fill rows off (2 * n) '\255';
  Bytes.set_uint16_ne rows (off + (2 * src)) 0;
  start_single_source ws src;
  let front = ws.front1 in
  let level = ref 0
  and sum = ref 0
  and count = ref 1
  and fresh = ref 1 in
  while !fresh > 0 do
    fresh := sweep_round_w ws;
    incr level;
    for k = 0 to words - 1 do
      let base = k * Bw.bits_per_word in
      let w = ref front.(k) in
      while !w <> 0 do
        let b = !w land - !w in
        Bytes.set_uint16_ne rows (off + (2 * (base + bit_index b))) !level;
        w := !w lxor b
      done
    done;
    sum := !sum + (!level * !fresh);
    count := !count + !fresh
  done;
  if !count = n then !sum else inf

(* ---------------- dispatch ---------------- *)

let distance_sum_from ws src =
  if ws.words = 1 then distance_sum_from_1 ws src else distance_sum_from_w ws src

let reach_stats ws src =
  if ws.words = 1 then reach_stats_1 ws src else reach_stats_w ws src

let all_distance_sums ws =
  if ws.words = 1 then all_distance_sums_1 ws else all_distance_sums_w ws

let eccentricities ws = ws.ecc

(* ---------------- per-domain workspaces ----------------
   One resident workspace per domain, handed out under a busy flag: the
   normal borrow is free of allocation, and a re-entrant borrow (a kernel
   routine calling another kernel routine) falls back to a fresh scratch
   workspace instead of corrupting the outer caller's state. *)

type slot = {
  resident : t;
  mutable busy : bool;
}

let slot_key = Domain.DLS.new_key (fun () -> { resident = create (); busy = false })

let with_ws f =
  let slot = Domain.DLS.get slot_key in
  if slot.busy then f (create ())
  else begin
    slot.busy <- true;
    Fun.protect ~finally:(fun () -> slot.busy <- false) (fun () -> f slot.resident)
  end

let with_loaded g f =
  with_ws (fun ws ->
      load ws g;
      f ws)
