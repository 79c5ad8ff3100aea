(* Tests for nf_util: extended integers, rationals, intervals, bitsets,
   subset iteration, PRNG determinism, statistics, table rendering. *)

open Nf_util

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- Ext_int ---------------- *)

let ext = Alcotest.testable Ext_int.pp Ext_int.equal

let test_ext_int_add () =
  check ext "fin+fin" (Ext_int.Fin 5) Ext_int.(add (Fin 2) (Fin 3));
  check ext "fin+inf" Ext_int.Inf Ext_int.(add (Fin 2) Inf);
  check ext "inf+inf" Ext_int.Inf Ext_int.(add Inf Inf)

let test_ext_int_sub () =
  check ext "fin-fin" (Ext_int.Fin (-1)) Ext_int.(sub (Fin 2) (Fin 3));
  check ext "inf-fin" Ext_int.Inf Ext_int.(sub Inf (Fin 3));
  Alcotest.check_raises "fin-inf raises"
    (Invalid_argument "Ext_int.sub: infinite subtrahend") (fun () ->
      ignore (Ext_int.sub (Ext_int.Fin 1) Ext_int.Inf))

let test_ext_int_mul () =
  check ext "3*fin" (Ext_int.Fin 12) (Ext_int.mul_int 3 (Ext_int.Fin 4));
  check ext "0*inf is 0" (Ext_int.Fin 0) (Ext_int.mul_int 0 Ext_int.Inf);
  check ext "2*inf" Ext_int.Inf (Ext_int.mul_int 2 Ext_int.Inf)

let test_ext_int_compare () =
  check_bool "fin < inf" true Ext_int.(Fin 1000000 < Inf);
  check_bool "inf < inf is false" false Ext_int.(Inf < Inf);
  check_bool "inf <= inf" true Ext_int.(Inf <= Inf);
  check ext "min" (Ext_int.Fin 1) (Ext_int.min (Ext_int.Fin 1) Ext_int.Inf);
  check ext "max" Ext_int.Inf (Ext_int.max (Ext_int.Fin 1) Ext_int.Inf);
  check_bool "to_float inf" true (Ext_int.to_float Ext_int.Inf = infinity)

let test_ext_int_sum () =
  check ext "sum finite" (Ext_int.Fin 6)
    (Ext_int.sum [ Ext_int.Fin 1; Ext_int.Fin 2; Ext_int.Fin 3 ]);
  check ext "sum with inf" Ext_int.Inf (Ext_int.sum [ Ext_int.Fin 1; Ext_int.Inf ]);
  check ext "empty sum" Ext_int.zero (Ext_int.sum [])

(* ---------------- Rat ---------------- *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  check rat "neg den" (Rat.make (-1) 2) (Rat.make 1 (-2));
  check_int "den positive" 2 (Rat.den (Rat.make 1 (-2)));
  check rat "zero" Rat.zero (Rat.make 0 17);
  check_string "pp integer" "5" (Rat.to_string (Rat.make 10 2));
  check_string "pp fraction" "-3/7" (Rat.to_string (Rat.make 3 (-7)))

let test_rat_arith () =
  check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  check rat "sub" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  check rat "mul" (Rat.make 1 6) (Rat.mul (Rat.make 1 2) (Rat.make 1 3));
  check rat "div" (Rat.make 3 2) (Rat.div (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let test_rat_compare () =
  check_bool "1/3 < 1/2" true Rat.(make 1 3 < make 1 2);
  check_bool "-1/2 < 1/3" true Rat.(make (-1) 2 < make 1 3);
  check_bool "is_integer" true (Rat.is_integer (Rat.make 4 2));
  check_bool "not is_integer" false (Rat.is_integer (Rat.make 1 2));
  check_bool "to_float" true (Rat.to_float (Rat.make 1 2) = 0.5)

let test_rat_of_string () =
  check rat "integer" (Rat.of_int 5) (Rat.of_string "5");
  check rat "negative integer" (Rat.of_int (-12)) (Rat.of_string "-12");
  check rat "fraction" (Rat.make 3 2) (Rat.of_string "3/2");
  check rat "negative fraction" (Rat.make (-3) 7) (Rat.of_string "-3/7");
  check rat "normalizes" (Rat.make 1 2) (Rat.of_string "2/4");
  check rat "negative denominator" (Rat.make (-1) 2) (Rat.of_string "1/-2");
  check rat "zero" Rat.zero (Rat.of_string "0");
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true (Rat.of_string_opt s = None);
      Alcotest.check_raises (Printf.sprintf "%S raises" s)
        (Invalid_argument
           (Printf.sprintf "Rat.of_string: %S is not an integer or P/Q rational" s))
        (fun () -> ignore (Rat.of_string s)))
    [ ""; " "; "1/0"; "0/0"; "1.5"; "1e3"; "1/"; "/2"; "1//2"; "0x10"; "1_000"; "+1"; "- 1"; "1/2/3" ]

(* the input bound: a component of magnitude 2^31 or more (past the int
   range included) is refused with the pinned message; one below it
   parses *)
let test_rat_input_bound () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true (Rat.of_string_opt s = None);
      Alcotest.check_raises (Printf.sprintf "%S raises" s)
        (Invalid_argument
           (Printf.sprintf
              "Rat.of_string: %S has a numerator or denominator of magnitude >= 2^31" s))
        (fun () -> ignore (Rat.of_string s)))
    [
      "2147483648";
      "-2147483648";
      "1/2147483648";
      "2147483648/2";
      "4611686018427387903/4611686018427387902";
      "99999999999999999999";
      "1/-99999999999999999999";
    ];
  check rat "largest numerator" (Rat.make 2147483647 2147483646)
    (Rat.of_string "2147483647/2147483646");
  check rat "most negative" (Rat.make (-2147483647) 1) (Rat.of_string "-2147483647")

let rat_arbitrary =
  QCheck.map
    (fun (n, d) -> Rat.make n (if d = 0 then 1 else d))
    QCheck.(pair (int_range (-50) 50) (int_range (-20) 20))

(* satellite contract: of_string is an exact left inverse of to_string *)
let prop_rat_string_roundtrip =
  QCheck.Test.make ~name:"rat of_string (to_string r) = r" ~count:500 rat_arbitrary
    (fun r -> Rat.equal r (Rat.of_string (Rat.to_string r)))

(* and on raw P/Q spellings it agrees with make, normalization included *)
let prop_rat_of_string_pq =
  QCheck.Test.make ~name:"rat of_string P/Q = make P Q" ~count:500
    QCheck.(pair (int_range (-200) 200) (int_range (-40) 40))
    (fun (p, q) ->
      let q = if q = 0 then 1 else q in
      Rat.equal (Rat.make p q) (Rat.of_string (Printf.sprintf "%d/%d" p q)))

let prop_rat_add_commutative =
  QCheck.Test.make ~name:"rat add commutative" ~count:500
    (QCheck.pair rat_arbitrary rat_arbitrary) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_rat_mul_distributes =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:500
    (QCheck.triple rat_arbitrary rat_arbitrary rat_arbitrary) (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_ordering_total =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:500
    (QCheck.pair rat_arbitrary rat_arbitrary) (fun (a, b) ->
      Rat.compare a b = -Rat.compare b a)

(* ---------------- Interval ---------------- *)

let interval = Alcotest.testable Interval.pp Interval.equal

let fin k = Interval.Finite (Rat.of_int k)

let test_interval_mem () =
  let i = Interval.open_closed (Rat.of_int 1) (fin 5) in
  check_bool "1 not in (1,5]" false (Interval.mem (Rat.of_int 1) i);
  check_bool "5 in (1,5]" true (Interval.mem (Rat.of_int 5) i);
  check_bool "3/2 in (1,5]" true (Interval.mem (Rat.make 3 2) i);
  check_bool "6 not in (1,5]" false (Interval.mem (Rat.of_int 6) i)

let test_interval_empty () =
  check_bool "reversed is empty" true
    (Interval.is_empty
       (Interval.make ~lo:(fin 5) ~lo_closed:true ~hi:(fin 1) ~hi_closed:true));
  check_bool "open point is empty" true
    (Interval.is_empty
       (Interval.make ~lo:(fin 2) ~lo_closed:false ~hi:(fin 2) ~hi_closed:true));
  check_bool "closed point non-empty" false (Interval.is_empty (Interval.point Rat.one));
  check_bool "full nonempty" false (Interval.is_empty Interval.full)

let test_interval_inter () =
  let a = Interval.closed (Rat.of_int 0) (Rat.of_int 10) in
  let b = Interval.open_closed (Rat.of_int 5) (fin 20) in
  check interval "inter" (Interval.open_closed (Rat.of_int 5) (fin 10)) (Interval.inter a b);
  let disjoint = Interval.closed (Rat.of_int 11) (Rat.of_int 12) in
  check_bool "disjoint inter empty" true (Interval.is_empty (Interval.inter a disjoint))

let test_interval_unbounded () =
  let i = Interval.open_closed (Rat.of_int 2) Interval.Pos_inf in
  check_bool "mem huge" true (Interval.mem (Rat.of_int 1000000) i);
  check_bool "mem 2 false" false (Interval.mem (Rat.of_int 2) i);
  check_bool "subset of full" true (Interval.subset i Interval.full)

let test_interval_union_merge () =
  let u =
    Interval.Union.of_list
      [
        Interval.closed (Rat.of_int 0) (Rat.of_int 2);
        Interval.closed (Rat.of_int 1) (Rat.of_int 3);
        Interval.closed (Rat.of_int 5) (Rat.of_int 6);
      ]
  in
  check_int "merged to two pieces" 2 (List.length (Interval.Union.to_list u));
  check_bool "mem 2.5" true (Interval.Union.mem (Rat.make 5 2) u);
  check_bool "mem 4 false" false (Interval.Union.mem (Rat.of_int 4) u)

let test_interval_union_touching () =
  (* (0,1] and (1,2] must merge (shared endpoint covered by the first) *)
  let u =
    Interval.Union.of_list
      [
        Interval.open_closed (Rat.of_int 0) (fin 1);
        Interval.open_closed (Rat.of_int 1) (fin 2);
      ]
  in
  check_int "touching merge" 1 (List.length (Interval.Union.to_list u));
  (* (0,1) and (1,2) must NOT merge: 1 is uncovered *)
  let v =
    Interval.Union.of_list
      [
        Interval.make ~lo:(fin 0) ~lo_closed:false ~hi:(fin 1) ~hi_closed:false;
        Interval.make ~lo:(fin 1) ~lo_closed:false ~hi:(fin 2) ~hi_closed:false;
      ]
  in
  check_int "gap preserved" 2 (List.length (Interval.Union.to_list v));
  check_bool "1 not in union" false (Interval.Union.mem Rat.one v)

(* ---------------- Bitset ---------------- *)

let test_bitset_basics () =
  let s = Bitset.of_list [ 0; 3; 7 ] in
  check_int "cardinal" 3 (Bitset.cardinal s);
  check_bool "mem 3" true (Bitset.mem 3 s);
  check_bool "mem 4" false (Bitset.mem 4 s);
  check_int "min_elt" 0 (Bitset.min_elt s);
  check (Alcotest.list Alcotest.int) "elements" [ 0; 3; 7 ] (Bitset.elements s);
  check_int "remove" 2 (Bitset.cardinal (Bitset.remove 3 s));
  check_int "full" 5 (Bitset.cardinal (Bitset.full 5))

let test_bitset_algebra () =
  let a = Bitset.of_list [ 1; 2; 3 ]
  and b = Bitset.of_list [ 3; 4 ] in
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 4 ]
    (Bitset.elements (Bitset.union a b));
  check (Alcotest.list Alcotest.int) "inter" [ 3 ] (Bitset.elements (Bitset.inter a b));
  check (Alcotest.list Alcotest.int) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  check_bool "subset" true (Bitset.subset (Bitset.of_list [ 1; 3 ]) a);
  check_bool "not subset" false (Bitset.subset b a)

let test_bitset_range_message () =
  Alcotest.check_raises "element 62 names the actual limit"
    (Invalid_argument
       "Bitset: element 62 out of range 0..61 (one-word bitset; use Bitset_w rows \
        beyond 62 elements)") (fun () -> ignore (Bitset.singleton 62));
  Alcotest.check_raises "negative element"
    (Invalid_argument
       "Bitset: element -1 out of range 0..61 (one-word bitset; use Bitset_w rows \
        beyond 62 elements)") (fun () -> ignore (Bitset.singleton (-1)))

(* ---------------- Bitset_w ---------------- *)

let test_bitset_w_layout () =
  check_int "62 usable bits per word" 62 Bitset_w.bits_per_word;
  check_int "words_for 0" 1 (Bitset_w.words_for 0);
  check_int "words_for 62" 1 (Bitset_w.words_for 62);
  check_int "words_for 63" 2 (Bitset_w.words_for 63);
  check_int "words_for 124" 2 (Bitset_w.words_for 124);
  check_int "words_for 125" 3 (Bitset_w.words_for 125);
  (* one-word rows are bit-for-bit the old Bitset *)
  let a = Array.make 1 0 in
  Bitset_w.set a 0 5;
  Bitset_w.set a 0 61;
  check_int "one-word row = Bitset int" (Bitset.of_list [ 5; 61 ] :> int) a.(0)

let test_bitset_w_ops () =
  let words = 3 in
  let off = words in
  (* work in the middle row of a 3-row slab to exercise offsets *)
  let a = Array.make (3 * words) 0 in
  List.iter (fun j -> Bitset_w.set a off j) [ 0; 61; 62; 63; 123; 124; 170 ];
  check_bool "get across boundary" true (Bitset_w.get a off 62);
  check_bool "absent" false (Bitset_w.get a off 64);
  check_int "cardinal" 7 (Bitset_w.cardinal a off words);
  Bitset_w.clear a off 62;
  check_bool "cleared" false (Bitset_w.get a off 62);
  Bitset_w.toggle a off 62;
  Bitset_w.toggle a off 1;
  check_int "after toggles" 8 (Bitset_w.cardinal a off words);
  let seen = ref [] in
  Bitset_w.iter (fun j -> seen := j :: !seen) a off words;
  check (Alcotest.list Alcotest.int) "iter ascending"
    [ 0; 1; 61; 62; 63; 123; 124; 170 ]
    (List.rev !seen);
  (* neighbouring rows untouched *)
  check_bool "row 0 empty" true (Bitset_w.is_empty_row a 0 words);
  check_bool "row 2 empty" true (Bitset_w.is_empty_row a (2 * words) words)

let test_bitset_w_row_algebra () =
  let words = 2 in
  let a = Array.make (2 * words) 0 in
  List.iter (fun j -> Bitset_w.set a 0 j) [ 3; 70 ];
  List.iter (fun j -> Bitset_w.set a words j) [ 3; 70 ];
  check_bool "equal rows" true (Bitset_w.equal_rows a 0 a words words);
  Bitset_w.set a words 100;
  check_bool "unequal rows" false (Bitset_w.equal_rows a 0 a words words);
  Bitset_w.union_into a 0 a words words;
  check_bool "union picked up 100" true (Bitset_w.get a 0 100);
  check_int "union cardinal" 3 (Bitset_w.cardinal a 0 words)

let test_bitset_w_full_mask () =
  check_int "full_word 0" 0 (Bitset_w.full_word 0);
  check_int "full_word 62 is the one-word full set" (Bitset.full 62 :> int)
    (Bitset_w.full_word 62);
  let words = Bitset_w.words_for 100 in
  let a = Array.make words 0 in
  Bitset_w.blit_full_mask a 0 100 words;
  check_int "blit_full_mask cardinal" 100 (Bitset_w.cardinal a 0 words);
  check_bool "element 99 present" true (Bitset_w.get a 0 99);
  check_bool "no stray high bit" false (Bitset_w.get a 0 100);
  (* bit_index on isolated bits over the full word range *)
  for k = 0 to 61 do
    check_int "bit_index" k (Bitset_w.bit_index (1 lsl k))
  done

let prop_bitset_w_matches_bitset =
  QCheck.Test.make ~name:"one-word Bitset_w row mirrors Bitset ops" ~count:200
    QCheck.(list (int_bound 61))
    (fun elts ->
      let s = List.fold_left (fun acc k -> Bitset.add k acc) Bitset.empty elts in
      let a = Array.make 1 0 in
      List.iter (fun k -> Bitset_w.set a 0 k) elts;
      a.(0) = (s :> int)
      && Bitset_w.cardinal a 0 1 = Bitset.cardinal s
      &&
      let seen = ref [] in
      Bitset_w.iter (fun j -> seen := j :: !seen) a 0 1;
      List.rev !seen = Bitset.elements s)

(* ---------------- Subset ---------------- *)

let test_subset_count () =
  let ground = Bitset.of_list [ 0; 2; 5 ] in
  let seen = ref [] in
  Subset.iter_subsets ground (fun s -> seen := s :: !seen);
  check_int "2^3 subsets" 8 (List.length !seen);
  check_int "all distinct" 8 (List.length (List.sort_uniq compare !seen));
  List.iter (fun s -> check_bool "subset of ground" true (Bitset.subset s ground)) !seen

let test_subset_by_size () =
  let ground = Bitset.full 5 in
  let count = ref 0 in
  Subset.iter_subsets_of_size ground 2 (fun _ -> incr count);
  check_int "C(5,2)" 10 !count

let test_iter_pairs () =
  let count = ref 0 in
  Subset.iter_pairs 6 (fun i j ->
      check_bool "ordered" true (i < j);
      incr count);
  check_int "C(6,2)" 15 !count

let test_exists_subset () =
  let ground = Bitset.full 4 in
  check_bool "finds" true (Subset.exists_subset ground (fun s -> Bitset.cardinal s = 3));
  check_bool "not found" false (Subset.exists_subset ground (fun s -> Bitset.cardinal s > 4))

let test_count_subsets_overflow () =
  (* regression: [1 lsl 62] lands in the sign bit of a 63-bit int, so a
     full 62-element ground set used to return a negative "count" *)
  check_int "2^10" 1024 (Subset.count_subsets (Bitset.full 10));
  check_int "2^61 stays positive" (1 lsl 61) (Subset.count_subsets (Bitset.full 61));
  Alcotest.check_raises "2^62 refuses instead of overflowing"
    (Invalid_argument
       (Printf.sprintf
          "Subset.count_subsets: 2^62 exceeds the native int range (cardinal must be \
           < %d)" (Sys.int_size - 1)))
    (fun () -> ignore (Subset.count_subsets (Bitset.full 62)))

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42
  and b = Prng.create 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000)
  and ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed same stream" xs ys;
  let c = Prng.create 43 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  check_bool "different seed different stream" true (xs <> zs)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10);
    let f = Prng.float rng 2.0 in
    check_bool "float in range" true (f >= 0.0 && f < 2.0)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 20 Fun.id) sorted

(* ---------------- Stats ---------------- *)

let test_stats () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "variance" 1.25 (Stats.variance s);
  check_bool "empty mean nan" true (Float.is_nan (Stats.mean Stats.empty))

let test_progress_meter () =
  (* injected fake clock: fully deterministic rate/ETA *)
  let t = ref 0.0 in
  let now () = !t in
  let m = Stats.Progress.create ~total:100 ~now () in
  check_int "starts at zero" 0 (Stats.Progress.count m);
  Stats.Progress.tick m 40;
  t := 2.0;
  check_int "position" 40 (Stats.Progress.count m);
  check (Alcotest.float 1e-9) "rate" 20.0 (Stats.Progress.rate m);
  (match Stats.Progress.eta m with
  | Some eta -> check (Alcotest.float 1e-9) "eta" 3.0 eta
  | None -> Alcotest.fail "expected an ETA");
  let line = Stats.Progress.line m in
  check_bool "line has position" true
    (let contains needle =
       let nl = String.length needle and hl = String.length line in
       let rec scan i = i + nl <= hl && (String.sub line i nl = needle || scan (i + 1)) in
       scan 0
     in
     contains "40/100" && contains "40%");
  Alcotest.check_raises "negative tick"
    (Invalid_argument "Stats.Progress.tick: negative increment") (fun () ->
      Stats.Progress.tick m (-1))

let test_progress_resumed_rate_excludes_carry_over () =
  let t = ref 0.0 in
  let m = Stats.Progress.create ~total:100 ~initial:60 ~now:(fun () -> !t) () in
  check_int "carry-over counted in position" 60 (Stats.Progress.count m);
  Stats.Progress.tick m 10;
  t := 5.0;
  (* 10 fresh items over 5s: the 60 inherited items must not inflate it *)
  check (Alcotest.float 1e-9) "rate from fresh work only" 2.0 (Stats.Progress.rate m);
  match Stats.Progress.eta m with
  | Some eta -> check (Alcotest.float 1e-9) "eta for the remaining 30" 15.0 eta
  | None -> Alcotest.fail "expected an ETA"

(* ---------------- Table / Ascii_plot ---------------- *)

let test_table_render () =
  let t = Table.create [ "alpha"; "poa" ] in
  Table.add_row t [ "0.5"; "1.0" ];
  Table.add_row t [ "12"; "1.25" ];
  let out = Table.render t in
  check_bool "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check_bool "aligned columns" true
    (match lines with
    | header :: _sep :: row :: _ ->
      String.index header 'p' = String.index row '1' + 2 || String.length row > 0
    | _ -> false)

let test_ascii_plot_renders () =
  let series =
    [
      { Ascii_plot.label = "ucg"; marker = '*'; points = [ (0., 1.); (1., 2.); (2., 1.5) ] };
      { Ascii_plot.label = "bcg"; marker = 'o'; points = [ (0., 1.1); (1., 1.9) ] };
    ]
  in
  let out = Ascii_plot.render ~title:"demo" series in
  check_bool "mentions title" true (String.length out > 4 && String.sub out 0 4 = "demo");
  check_bool "contains markers" true (String.contains out '*' && String.contains out 'o');
  (* robust to degenerate inputs *)
  let empty = Ascii_plot.render ~title:"empty" [ { Ascii_plot.label = "x"; marker = 'x'; points = [] } ] in
  check_bool "empty handled" true (String.length empty > 0)

(* random intervals over small rationals *)
let interval_arbitrary =
  let endpoint =
    QCheck.Gen.(
      frequency
        [
          (1, return Interval.Neg_inf);
          (1, return Interval.Pos_inf);
          (6, map2 (fun n d -> Interval.Finite (Rat.make n (1 + abs d))) (int_range (-20) 20) (int_range 0 6));
        ])
  in
  QCheck.make
    ~print:(fun i -> Interval.to_string i)
    QCheck.Gen.(
      map
        (fun (lo, lc, hi, hc) -> Interval.make ~lo ~lo_closed:lc ~hi ~hi_closed:hc)
        (quad endpoint bool endpoint bool))

let rat_points =
  List.concat_map (fun n -> [ Rat.of_int n; Rat.make n 2; Rat.make n 3 ]) [ -21; -7; -1; 0; 1; 3; 8; 21 ]

let prop_inter_is_conjunction =
  QCheck.Test.make ~name:"interval inter = pointwise and" ~count:300
    (QCheck.pair interval_arbitrary interval_arbitrary) (fun (a, b) ->
      let c = Interval.inter a b in
      List.for_all
        (fun x -> Interval.mem x c = (Interval.mem x a && Interval.mem x b))
        rat_points)

let prop_inter_commutative =
  QCheck.Test.make ~name:"interval inter commutative" ~count:300
    (QCheck.pair interval_arbitrary interval_arbitrary) (fun (a, b) ->
      Interval.equal (Interval.inter a b) (Interval.inter b a))

let prop_subset_via_inter =
  QCheck.Test.make ~name:"subset consistent with inter" ~count:300
    (QCheck.pair interval_arbitrary interval_arbitrary) (fun (a, b) ->
      if Interval.subset a b then Interval.equal (Interval.inter a b) a else true)

let prop_union_mem_disjunction =
  QCheck.Test.make ~name:"union mem = any member" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 5) interval_arbitrary) (fun intervals ->
      let u = Interval.Union.of_list intervals in
      List.for_all
        (fun x -> Interval.Union.mem x u = List.exists (Interval.mem x) intervals)
        rat_points)

(* the coverage prune of the UCG orientation walk rests on this: an
   interval the union covers (inside one of its ranges, the union's
   maximal connected pieces) leaves the union's normal form unchanged *)
let prop_union_covers =
  QCheck.Test.make ~name:"union covers = add is a no-op" ~count:500
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 5) interval_arbitrary)
       interval_arbitrary) (fun (intervals, i) ->
      let u = Interval.Union.of_list intervals in
      let covers =
        Interval.is_empty i || List.exists (Interval.subset i) (Interval.Union.to_list u)
      in
      covers = Interval.Union.equal (Interval.Union.add i u) u)

let prop_union_pieces_disjoint_sorted =
  QCheck.Test.make ~name:"union normal form" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) interval_arbitrary) (fun intervals ->
      let pieces = Interval.Union.to_list (Interval.Union.of_list intervals) in
      (* no piece empty, and consecutive pieces neither overlap nor touch *)
      List.for_all (fun p -> not (Interval.is_empty p)) pieces
      &&
      let rec check = function
        | a :: (b :: _ as rest) ->
          (match (Interval.bounds a, Interval.bounds b) with
          | Some (_, _, hi, hi_closed), Some (lo, lo_closed, _, _) ->
            let c = Interval.compare_endpoint hi lo in
            (c < 0 || (c = 0 && (not hi_closed) && not lo_closed)) && check rest
          | _ -> false)
        | _ -> true
      in
      check pieces)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_util"
    [
      ( "ext_int",
        [
          Alcotest.test_case "add" `Quick test_ext_int_add;
          Alcotest.test_case "sub" `Quick test_ext_int_sub;
          Alcotest.test_case "mul_int" `Quick test_ext_int_mul;
          Alcotest.test_case "compare/min/max" `Quick test_ext_int_compare;
          Alcotest.test_case "sum" `Quick test_ext_int_sum;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "input bound" `Quick test_rat_input_bound;
          qcheck prop_rat_string_roundtrip;
          qcheck prop_rat_of_string_pq;
          qcheck prop_rat_add_commutative;
          qcheck prop_rat_mul_distributes;
          qcheck prop_rat_ordering_total;
        ] );
      ( "interval",
        [
          Alcotest.test_case "mem" `Quick test_interval_mem;
          Alcotest.test_case "empty" `Quick test_interval_empty;
          Alcotest.test_case "inter" `Quick test_interval_inter;
          Alcotest.test_case "unbounded" `Quick test_interval_unbounded;
          Alcotest.test_case "union merge" `Quick test_interval_union_merge;
          Alcotest.test_case "union touching" `Quick test_interval_union_touching;
          qcheck prop_inter_is_conjunction;
          qcheck prop_inter_commutative;
          qcheck prop_subset_via_inter;
          qcheck prop_union_mem_disjunction;
          qcheck prop_union_pieces_disjoint_sorted;
          qcheck prop_union_covers;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "range message" `Quick test_bitset_range_message;
        ] );
      ( "bitset_w",
        [
          Alcotest.test_case "layout" `Quick test_bitset_w_layout;
          Alcotest.test_case "ops across words" `Quick test_bitset_w_ops;
          Alcotest.test_case "row algebra" `Quick test_bitset_w_row_algebra;
          Alcotest.test_case "full masks / bit_index" `Quick test_bitset_w_full_mask;
          qcheck prop_bitset_w_matches_bitset;
        ] );
      ( "subset",
        [
          Alcotest.test_case "count" `Quick test_subset_count;
          Alcotest.test_case "by size" `Quick test_subset_by_size;
          Alcotest.test_case "iter_pairs" `Quick test_iter_pairs;
          Alcotest.test_case "exists" `Quick test_exists_subset;
          Alcotest.test_case "count overflow guard" `Quick test_count_subsets_overflow;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats;
          Alcotest.test_case "progress meter" `Quick test_progress_meter;
          Alcotest.test_case "progress resume" `Quick test_progress_resumed_rate_excludes_carry_over;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot_renders;
        ] );
    ]
