module Graph = Nf_graph.Graph
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Ext_int = Nf_util.Ext_int
module Table = Nf_util.Table
module Gallery = Nf_named.Gallery
module Families = Nf_named.Families
open Netform

type result = {
  id : string;
  title : string;
  body : string;
  ok : bool;
}

let render r =
  Printf.sprintf "=== %s: %s [%s] ===\n%s\n" r.id r.title
    (if r.ok then "ok" else "CHECK FAILED")
    r.body

let render_all results = String.concat "\n" (List.map render results)

type ctx = {
  n : int;
  source : Source.t;
  points : Figures.point list Lazy.t;
}

let context source =
  if not (Source.carries source ~game:"bcg" && Source.carries source ~game:"ucg") then
    invalid_arg
      (Printf.sprintf "store carries %S annotations only; Figures 2/3 need a BCG+UCG store"
         (Source.game source));
  { n = Source.n source; source; points = lazy (Figures.sweep_source source) }

(* [game]'s annotated classes on [n] vertices: the context's own source
   when it is at that order and carries the game, else a fresh one *)
let source_at ctx ~game n =
  if n = ctx.n && Source.carries ctx.source ~game then ctx.source else Source.of_game game n

let stable_at ctx ~game ~n ~alpha = Source.stable (source_at ctx ~game n) ~game ~alpha

(* ---------------- E1/E2: Figures 2 and 3 ---------------- *)

(* qualitative assertions from §5: cheap links favor the BCG, expensive
   links favor the UCG, and BCG equilibria carry more links on average *)
let average get points =
  let values = List.filter (fun v -> not (Float.is_nan v)) (List.map get points) in
  Nf_util.Stats.mean (Nf_util.Stats.of_list values)

let e1_figure2 ~id ctx =
  let points = Lazy.force ctx.points in
  let cheap = List.filter (fun p -> Rat.(p.Figures.total_link_cost <= of_int 1)) points
  and expensive = List.filter (fun p -> Rat.(p.Figures.total_link_cost >= of_int 16)) points in
  let bcg_avg = average (fun p -> p.Figures.bcg.Poa.average)
  and ucg_avg = average (fun p -> p.Figures.ucg.Poa.average) in
  {
    id;
    title = Printf.sprintf "Figure 2 - average price of anarchy (n=%d, exhaustive)" ctx.n;
    body = Figures.figure2_table points ^ "\n" ^ Figures.figure2_plot points;
    ok = bcg_avg cheap <= ucg_avg cheap && bcg_avg expensive >= ucg_avg expensive;
  }

let e2_figure3 ~id ctx =
  let points = Lazy.force ctx.points in
  {
    id;
    title = Printf.sprintf "Figure 3 - average links in equilibrium (n=%d, exhaustive)" ctx.n;
    body = Figures.figure3_table points ^ "\n" ^ Figures.figure3_plot points;
    ok =
      average (fun p -> p.Figures.bcg.Poa.average_links) points
      >= average (fun p -> p.Figures.ucg.Poa.average_links) points;
  }

(* ---------------- E3: Figure 1 gallery ---------------- *)

let classification g =
  match Nf_graph.Props.strongly_regular_params g with
  | Some (n, k, l, m) -> Printf.sprintf "srg(%d,%d,%d,%d)" n k l m
  | None -> (
    match Nf_graph.Props.regularity g with
    | Some k -> Printf.sprintf "%d-regular" k
    | None -> "irregular")

let e3_figure1_gallery ~id _ =
  let table =
    Table.create
      [ "graph"; "n"; "m"; "class"; "girth"; "diam"; "#eigenvalues"; "stable alpha";
        "link convex"; "PoA(mid)" ]
  in
  let ok = ref true in
  let figure1 = [ "petersen"; "mcgee"; "octahedron"; "clebsch"; "hoffman-singleton"; "star8" ] in
  List.iter
    (fun name ->
      let g = List.assoc name Gallery.all in
      let set = Bcg.stable_alpha_set g in
      if Interval.is_empty set then ok := false;
      let poa_mid =
        match Interval.bounds set with
        | Some (Interval.Finite lo, _, Interval.Finite hi, _) ->
          let mid = Rat.to_float (Rat.div (Rat.add lo hi) (Rat.of_int 2)) in
          Printf.sprintf "%.3f" (Poa.price_of_anarchy Cost.Bcg ~alpha:mid g)
        | Some (Interval.Finite lo, _, Interval.Pos_inf, _) ->
          Printf.sprintf "%.3f" (Poa.price_of_anarchy Cost.Bcg ~alpha:(Rat.to_float lo +. 1.0) g)
        | Some _ | None -> "-"
      in
      (* a strongly regular graph must show exactly three distinct
         adjacency eigenvalues — an independent spectral certificate *)
      let distinct = List.length (Nf_graph.Spectrum.distinct_eigenvalues g) in
      if Nf_graph.Props.is_strongly_regular g && distinct <> 3 then ok := false;
      Table.add_row table
        [
          name;
          string_of_int (Graph.order g);
          string_of_int (Graph.size g);
          classification g;
          Ext_int.to_string (Nf_graph.Girth.girth g);
          Ext_int.to_string (Nf_graph.Apsp.diameter g);
          string_of_int distinct;
          Interval.to_string set;
          string_of_bool (Convexity.is_link_convex g);
          poa_mid;
        ])
    figure1;
  {
    id;
    title = "Figure 1 - the stable-graph gallery (exact stability windows)";
    body =
      Table.render table
      ^ "\nSpectral certificate: each srg row shows exactly 3 distinct adjacency\n\
         eigenvalues (asserted).\n";
    ok = !ok;
  }

(* ---------------- E4/E5: Lemmas 4 and 5 ---------------- *)

let e4_lemma4 ~id ({ n; _ } as ctx) =
  let alpha = Rat.make 1 2 in
  let stable = stable_at ctx ~game:"bcg" ~n ~alpha in
  let efficient =
    List.filter
      (Efficiency.is_efficient Cost.Bcg ~alpha:(Rat.to_float alpha))
      (Nf_enum.Unlabeled.connected_graphs n)
  in
  let ok =
    List.length stable = 1
    && List.length efficient = 1
    && Graph.is_complete (List.hd stable)
    && Graph.is_complete (List.hd efficient)
  in
  {
    id;
    title = Printf.sprintf "Lemma 4 - alpha<1: complete graph uniquely efficient and stable (n=%d)" n;
    body =
      Printf.sprintf
        "alpha = %s over all %d connected classes:\n  efficient graphs: %d (complete: %b)\n  pairwise stable graphs: %d (complete: %b)\n"
        (Rat.to_string alpha)
        (Nf_enum.Unlabeled.count_connected n)
        (List.length efficient)
        (List.exists Graph.is_complete efficient)
        (List.length stable)
        (List.exists Graph.is_complete stable);
    ok;
  }

let e5_lemma5 ~id ({ n; _ } as ctx) =
  let alpha = Rat.of_int 3 in
  let stable = stable_at ctx ~game:"bcg" ~n ~alpha in
  let efficient =
    List.filter
      (Efficiency.is_efficient Cost.Bcg ~alpha:(Rat.to_float alpha))
      (Nf_enum.Unlabeled.connected_graphs n)
  in
  let star_stable = List.exists Nf_graph.Props.is_star stable in
  let ok =
    List.length efficient = 1
    && Nf_graph.Props.is_star (List.hd efficient)
    && star_stable
    && List.length stable > 1
  in
  let witness =
    match List.find_opt (fun g -> not (Nf_graph.Props.is_star g)) stable with
    | Some g -> Graph.to_string g
    | None -> "(none)"
  in
  {
    id;
    title = Printf.sprintf "Lemma 5 - alpha>1: star uniquely efficient, stable but not unique (n=%d)" n;
    body =
      Printf.sprintf
        "alpha = %s:\n  efficient graphs: %d (star: %b)\n  pairwise stable graphs: %d (star among them: %b)\n  a non-star stable witness: %s\n"
        (Rat.to_string alpha) (List.length efficient)
        (List.exists Nf_graph.Props.is_star efficient)
        (List.length stable) star_stable witness;
    ok;
  }

(* ---------------- E6: Lemma 6, cycles ---------------- *)

let e6_lemma6_cycles ~id _ =
  let table =
    Table.create
      [ "n"; "paper window"; "exact stable set"; "PoA(alpha_max)"; "stable for some alpha>1" ]
  in
  let ok = ref true in
  for n = 4 to 16 do
    let g = Families.cycle n in
    let lo, hi = Theory.cycle_window n in
    let set = Bcg.stable_alpha_set g in
    let stable_above_one =
      match Interval.bounds set with
      | Some (_, _, Interval.Finite hi_exact, _) -> Rat.(hi_exact > of_int 1)
      | Some (_, _, Interval.Pos_inf, _) -> true
      | _ -> false
    in
    if n >= 5 && not stable_above_one then ok := false;
    let poa =
      match Interval.bounds set with
      | Some (_, _, Interval.Finite hi_exact, _) ->
        Printf.sprintf "%.3f" (Poa.price_of_anarchy Cost.Bcg ~alpha:(Rat.to_float hi_exact) g)
      | _ -> "-"
    in
    Table.add_row table
      [
        string_of_int n;
        Printf.sprintf "(%s, %s)" (Rat.to_string lo) (Rat.to_string hi);
        Interval.to_string set;
        poa;
        string_of_bool stable_above_one;
      ]
  done;
  {
    id;
    title = "Lemma 6 - cycles are pairwise stable for a window of alpha > 1";
    body =
      Table.render table
      ^ "\nNote: the paper's window is a proof-sketch approximation; the exact set is\n\
         computed from alpha_min/alpha_max.  PoA at the window top stays O(1).\n";
    ok = !ok;
  }

(* ---------------- E7: Proposition 3 ---------------- *)

let e7_prop3_moore ~id _ =
  let table =
    Table.create
      [ "graph"; "k"; "girth"; "moore ratio"; "S_a (paper)"; "S_r (paper)"; "exact gain";
        "exact loss"; "stable alpha"; "PoA(top)"; "log2(top)" ]
  in
  let ok = ref true in
  (* Prop 3 claims stability for regular graphs whose order is a constant
     factor of the Moore bound; the hypercubes are included for contrast
     (Q4 sits at ratio 0.1 and is NOT stable — long-range additions beat
     the girth bound, the same effect as in E12). *)
  let candidates =
    [
      ("petersen", Gallery.petersen);
      ("hoffman-singleton", Gallery.hoffman_singleton);
      ("heawood", Gallery.heawood);
      ("mcgee", Gallery.mcgee);
      ("tutte-coxeter", Gallery.tutte_coxeter);
      ("moebius-kantor", Gallery.moebius_kantor);
      ("pappus", Gallery.pappus);
      ("nauru", Gallery.nauru);
      ("clebsch", Gallery.clebsch);
      ("hypercube Q3", Families.hypercube 3);
      ("hypercube Q4", Families.hypercube 4);
    ]
  in
  List.iter
    (fun (name, g) ->
      let k = Option.value ~default:0 (Nf_graph.Props.regularity g) in
      let girth =
        match Nf_graph.Girth.girth g with
        | Ext_int.Fin v -> v
        | Ext_int.Inf -> 0
      in
      let ratio = Option.value ~default:0.0 (Nf_named.Moore.moore_ratio g) in
      let set = Bcg.stable_alpha_set g in
      if ratio >= 0.5 && Interval.is_empty set then ok := false;
      let gain, loss =
        match Convexity.link_convexity_gap g with
        | Some (gain, loss) -> (Ext_int.to_string gain, Ext_int.to_string loss)
        | None -> ("-", "-")
      in
      let poa_top, log_top =
        match Interval.bounds set with
        | Some (_, _, Interval.Finite hi, _) ->
          let a = Rat.to_float hi in
          ( Printf.sprintf "%.3f" (Poa.price_of_anarchy Cost.Bcg ~alpha:a g),
            Printf.sprintf "%.2f" (Float.log a /. Float.log 2.) )
        | _ -> ("-", "-")
      in
      Table.add_row table
        [
          name;
          string_of_int k;
          string_of_int girth;
          Printf.sprintf "%.2f" ratio;
          string_of_int (Theory.regular_addition_decrease ~k ~girth);
          string_of_int (Theory.regular_removal_increase ~k ~girth);
          gain;
          loss;
          Interval.to_string set;
          poa_top;
          log_top;
        ])
    candidates;
  {
    id;
    title = "Prop 3 - near-Moore regular graphs are stable; PoA grows like log2(alpha)";
    body =
      Table.render table
      ^ "\nLower-bound reading: along the Moore families, the stability window's top\n\
         alpha grows exponentially in the diameter while PoA grows linearly in it,\n\
         i.e. PoA = Omega(log2 alpha) on this family.\n";
    ok = !ok;
  }

(* ---------------- E8: Proposition 4 ---------------- *)

let e8_prop4_upper_bound ~id ctx =
  let n = max ctx.n 7 in
  let table =
    Table.create
      [ "alpha"; "#stable"; "worst PoA"; "min(sqrt a, n/sqrt a)"; "max diam"; "2 sqrt a + 1" ]
  in
  let ok = ref true in
  List.iter
    (fun alpha ->
      let stable = stable_at ctx ~game:"bcg" ~n ~alpha in
      let alpha_f = Rat.to_float alpha in
      let summary = Poa.summarize Cost.Bcg ~alpha:alpha_f stable in
      let curve = Theory.poa_upper_bound ~alpha:alpha_f ~n in
      let max_diam =
        List.fold_left
          (fun acc g ->
            match Nf_graph.Apsp.diameter g with
            | Ext_int.Fin d -> max acc d
            | Ext_int.Inf -> acc)
          0 stable
      in
      let diam_bound = Theory.bcg_diameter_bound ~alpha:alpha_f +. 1.0 in
      if stable <> [] then begin
        (* the qualitative content of Prop 4: worst PoA within a constant of
           the curve, stable diameters below 2 sqrt(alpha) + 1 *)
        if summary.Poa.worst > 4.0 *. Float.max 1.0 curve then ok := false;
        if float_of_int max_diam >= diam_bound then ok := false
      end;
      Table.add_row table
        [
          Rat.to_string alpha;
          string_of_int summary.Poa.count;
          (if summary.Poa.count = 0 then "-" else Printf.sprintf "%.3f" summary.Poa.worst);
          Printf.sprintf "%.3f" curve;
          string_of_int max_diam;
          Printf.sprintf "%.2f" diam_bound;
        ])
    Sweep.paper_grid;
  {
    id;
    title = Printf.sprintf "Prop 4 - worst-case PoA vs O(min(sqrt a, n/sqrt a)) (n=%d)" n;
    body = Table.render table;
    ok = !ok;
  }

(* ---------------- E9: Proposition 5 + conjecture ---------------- *)

let e9_prop5_trees ~id ctx =
  let max_n = 8 and conjecture_n = min ctx.n 6 in
  let ok = ref true in
  let buf = Buffer.create 512 in
  (* Prop 5 (restated for trees): every UCG-Nash tree is BCG pairwise
     stable at the same alpha, i.e. the tree's Nash alpha-set is contained
     in its stable alpha-set. *)
  let tree_total = ref 0
  and tree_nash = ref 0 in
  for n = 3 to max_n do
    List.iter
      (fun t ->
        incr tree_total;
        let nash = Ucg.nash_alpha_set t in
        if not (Interval.Union.is_empty nash) then begin
          incr tree_nash;
          let stable = Bcg.stable_alpha_set t in
          List.iter
            (fun piece ->
              if not (Interval.subset piece stable) then begin
                ok := false;
                Buffer.add_string buf
                  (Printf.sprintf "  VIOLATION (tree): %s nash=%s stable=%s\n"
                     (Graph.to_string t)
                     (Interval.Union.to_string nash)
                     (Interval.to_string stable))
              end)
            (Interval.Union.to_list nash)
        end)
      (Nf_enum.Trees.unlabeled_trees n)
  done;
  Buffer.add_string buf
    (Printf.sprintf "trees n<=%d: %d classes, %d UCG-Nash for some alpha, all contained: %b\n"
       max_n !tree_total !tree_nash !ok);
  (* the paper's conjecture, on all connected graphs from n = 3 up: find
     the minimal counterexamples *)
  for cn = 3 to conjecture_n do
    let conj_ok = ref true
    and conj_total = ref 0
    and conj_nash = ref 0 in
    (* a "ucg" source is the classic BCG+UCG content: the record holds
       the BCG region next to the Nash set *)
    Source.iter (source_at ctx ~game:"ucg" cn) (fun g r ->
        let nash = Option.get r.Nf_store.Layout.ucg in
        incr conj_total;
        if not (Interval.Union.is_empty nash) then begin
          incr conj_nash;
          let stable = r.Nf_store.Layout.bcg in
          List.iter
            (fun piece ->
              if not (Interval.subset piece stable) then begin
                conj_ok := false;
                Buffer.add_string buf
                  (Printf.sprintf "  conjecture counterexample: %s nash=%s stable=%s\n"
                     (Graph.to_string g)
                     (Interval.Union.to_string nash)
                     (Interval.to_string stable))
              end)
            (Interval.Union.to_list nash)
        end);
    Buffer.add_string buf
      (Printf.sprintf
         "conjecture on all connected graphs n=%d: %d classes, %d UCG-Nash, contained: %b\n"
         cn !conj_total !conj_nash !conj_ok)
  done;
  {
    id;
    title = "Prop 5 - UCG Nash trees are BCG stable at the same alpha (+ conjecture)";
    body = Buffer.contents buf;
    ok = !ok;
  }

(* ---------------- E10/E11: footnotes ---------------- *)

let e10_footnote5_cycles ~id _ =
  let buf = Buffer.create 256 in
  let ok = ref true in
  for n = 5 to 9 do
    let g = Families.cycle n in
    let nash = Ucg.nash_alpha_set g in
    let stable = Bcg.stable_alpha_set g in
    let expected_nash_empty = n > 5 in
    if Interval.Union.is_empty nash <> expected_nash_empty then ok := false;
    if Interval.is_empty stable then ok := false;
    Buffer.add_string buf
      (Printf.sprintf "  C%-2d UCG nash: %-14s BCG stable: %s\n" n
         (Interval.Union.to_string nash)
         (Interval.to_string stable))
  done;
  (* the clockwise-ownership profile is never Nash for C6 *)
  let g6 = Families.cycle 6 in
  let owner i j = if (i + 1) mod 6 = j then i else j in
  if Ucg.is_nash_orientation ~alpha:(Rat.of_int 2) g6 ~owner then ok := false;
  Buffer.add_string buf
    "  clockwise-ownership C6 at alpha=2: not Nash (node 0 rewires to node 2)\n";
  {
    id;
    title = "Footnote 5 - cycles beyond C5 are BCG-stable but never UCG-Nash";
    body = Buffer.contents buf;
    ok = !ok;
  }

let e11_footnote7_petersen ~id _ =
  let set = Ucg.nash_alpha_set Gallery.petersen in
  let claimed = Interval.closed Rat.one (Rat.of_int 4) in
  let contains_claim =
    List.exists (fun piece -> Interval.subset claimed piece) (Interval.Union.to_list set)
  in
  {
    id;
    title = "Footnote 7 - the Petersen graph is UCG-Nash for 1 <= alpha <= 4";
    body =
      Printf.sprintf "  exact UCG Nash set: %s\n  contains [1,4]: %b\n"
        (Interval.Union.to_string set) contains_claim;
    ok = contains_claim;
  }

(* ---------------- E12: Desargues / dodecahedron ---------------- *)

let e12_desargues ~id _ =
  let report name g =
    let gain, loss =
      match Convexity.link_convexity_gap g with
      | Some (gain, loss) -> (Ext_int.to_string gain, Ext_int.to_string loss)
      | None -> ("-", "-")
    in
    Printf.sprintf "  %-13s max addition gain=%s min severance loss=%s link convex=%b stable=%s\n"
      name gain loss (Convexity.is_link_convex g)
      (Interval.to_string (Bcg.stable_alpha_set g))
  in
  let body =
    report "desargues" Gallery.desargues
    ^ report "dodecahedron" Gallery.dodecahedron
    ^ "  Paper claims Desargues is link convex; the exact computation refutes it:\n\
      \  its best addition spans distance 4 on the outer cycle and saves 10 > 8.\n\
      \  The paper's S_a bound only counts additions across a shortest cycle.\n"
  in
  let ok =
    (not (Convexity.is_link_convex Gallery.desargues))
    && not (Convexity.is_link_convex Gallery.dodecahedron)
  in
  { id; title = "S4.1 - link convexity of Desargues vs dodecahedron"; body; ok }

(* ---------------- E13: eq. (5) ---------------- *)

let e13_eq5_bound ~id { n; _ } =
  let alpha = 1.75 in
  let total = ref 0
  and tight = ref 0
  and violations = ref 0 in
  (* iter_connected streams off the canonical-augmentation enumerator, so
     this check scales to n = 9 without materializing the level *)
  Nf_enum.Unlabeled.iter_connected n (fun g ->
      incr total;
      let bound = Cost.social_cost_lower_bound ~alpha n (Graph.size g) in
      let cost = Cost.social_cost Cost.Bcg ~alpha g in
      if cost < bound -. 1e-9 then incr violations;
      if Cost.is_social_cost_bound_tight ~alpha g then begin
        incr tight;
        if not (Nf_graph.Props.has_diameter_at_most g 2) then incr violations
      end);
  {
    id;
    title = Printf.sprintf "Eq. (5) - social-cost lower bound, tight iff diameter <= 2 (n=%d)" n;
    body =
      Printf.sprintf
        "  alpha=%.2f: %d connected classes, bound violated by %d, tight for %d (all diameter<=2)\n"
        alpha !total !violations !tight;
    ok = !violations = 0;
  }

(* ---------------- E14: transfers ablation (paper's §6 outlook) -------- *)

let e14_transfers ~id ({ n; _ } as ctx) =
  let table =
    Table.create
      [ "alpha"; "#stable"; "avg PoA"; "worst PoA"; "#stable (transfers)";
        "avg PoA (transfers)"; "worst PoA (transfers)" ]
  in
  let ok = ref true in
  List.iter
    (fun alpha ->
      let alpha_f = Rat.to_float alpha in
      let summary game = Poa.summarize Cost.Bcg ~alpha:alpha_f (stable_at ctx ~game ~n ~alpha) in
      let plain = summary "bcg" and with_t = summary "transfers" in
      (* transfers internalize the externality at the endpoints: the
         worst transfer-stable network should never be worse than the
         worst plain-stable network *)
      if plain.Poa.count > 0 && with_t.Poa.count > 0 && with_t.Poa.worst > plain.Poa.worst +. 1e-9
      then ok := false;
      let cell v = if Float.is_nan v then "-" else Printf.sprintf "%.4f" v in
      Table.add_row table
        [
          Rat.to_string alpha;
          string_of_int plain.Poa.count;
          cell plain.Poa.average;
          cell plain.Poa.worst;
          string_of_int with_t.Poa.count;
          cell with_t.Poa.average;
          cell with_t.Poa.worst;
        ])
    Sweep.paper_grid;
  {
    id;
    title =
      Printf.sprintf
        "Extension (S6 outlook) - transfers mediate the price of anarchy (n=%d)" n;
    body =
      Table.render table
      ^ "\nWith side payments link decisions follow the pair's joint surplus.  At this\n\
         scale the stable sets almost coincide — the asymmetric blocking that\n\
         transfers remove rarely binds on so few vertices — but the worst\n\
         transfer-stable network is never worse than the worst plain-stable one\n\
         (asserted per row), which is the direction the paper's outlook predicts.\n";
    ok = !ok;
  }

(* ---------------- E15: dynamics and Proposition 2 ---------------- *)

let e15_dynamics_and_prop2 ~id _ =
  let buf = Buffer.create 512 in
  let ok = ref true in
  (* Jackson–Watts: improving paths never get trapped — no closed
     improving cycles at any grid link cost *)
  Buffer.add_string buf "Improving-move digraph over all labeled graphs:\n";
  List.iter
    (fun alpha ->
      let a = Nf_dynamics.Meta.analyze ~alpha ~n:5 in
      if not (Nf_dynamics.Meta.no_closed_cycles a) then ok := false;
      Buffer.add_string buf (Format.asprintf "  %a\n" Nf_dynamics.Meta.pp a))
    [ Rat.make 1 2; Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.of_int 4; Rat.of_int 8 ];
  Buffer.add_string buf
    "  => no closed improving cycles: the stochastic dynamics always converge.\n\n";
  (* Prop 2 constructively: every link convex graph comes with a witness
     link cost at which it is pairwise stable (hence proper-equilibrium
     achievable via Lemma 3) *)
  let convex = ref 0
  and witnessed = ref 0 in
  List.iter
    (fun g ->
      if Convexity.is_link_convex g then begin
        incr convex;
        match Convexity.witness_alpha g with
        | Some alpha when Bcg.is_pairwise_stable ~alpha g -> incr witnessed
        | Some _ | None -> ok := false
      end)
    (Nf_enum.Unlabeled.connected_graphs 6);
  Buffer.add_string buf
    (Printf.sprintf
       "Prop 2 witnesses (n=6): %d link convex classes, %d verified pairwise stable at\n\
        the witness link cost from inequality (3).\n"
       !convex !witnessed);
  List.iter
    (fun (name, g) ->
      if Convexity.is_link_convex g then
        match Convexity.witness_alpha g with
        | Some alpha ->
          if not (Bcg.is_pairwise_stable ~alpha g) then ok := false;
          Buffer.add_string buf
            (Printf.sprintf "  %-18s witness alpha = %s\n" name (Rat.to_string alpha))
        | None -> ok := false)
    Gallery.all;
  {
    id;
    title = "Dynamics convergence (Jackson-Watts) and Prop 2 witnesses";
    body = Buffer.contents buf;
    ok = !ok;
  }

(* ---------------- E16: shape census (§5 discussion) ---------------- *)

let e16_shape_census ~id ({ n; _ } as ctx) =
  let table = Table.create [ "alpha"; "BCG stable shapes"; "UCG Nash shapes" ] in
  let ok = ref true in
  let grid =
    List.sort_uniq Rat.compare
      (Sweep.paper_grid @ [ Rat.of_int ((n * n) + 1); Rat.of_int (2 * n * n) ])
  in
  List.iter
    (fun alpha ->
      let bcg = stable_at ctx ~game:"bcg" ~n ~alpha in
      let ucg = stable_at ctx ~game:"ucg" ~n ~alpha in
      (* the §5 parenthetical: all equilibrium networks are trees once
         alpha > n^2 *)
      if Rat.(alpha > of_int (n * n)) then begin
        if not (Shapes.all_trees bcg) then ok := false;
        if not (Shapes.all_trees ucg) then ok := false
      end;
      Table.add_row table
        [
          Rat.to_string alpha;
          Shapes.census_to_string (Shapes.census bcg);
          Shapes.census_to_string (Shapes.census ucg);
        ])
    grid;
  {
    id;
    title = Printf.sprintf "S5 discussion - shapes of equilibrium networks (n=%d)" n;
    body =
      Table.render table
      ^ "\nThe dense diameter-2 classes carry the low-alpha end, the over-connected\n\
         intermediates the Figure-2 hump, and past alpha = n^2 only trees survive\n\
         (asserted for every row with alpha > n^2).\n";
    ok = !ok;
  }

(* ---------------- E17: distance-utility robustness ---------------- *)

let e17_distance_utilities ~id _ =
  let profiles =
    [
      Distance_utility.linear;
      Distance_utility.quadratic;
      Distance_utility.hop_capped 2;
      Distance_utility.connectivity;
    ]
  in
  let subjects =
    [
      ("star8", Gallery.star8);
      ("cycle C8", Families.cycle 8);
      ("petersen", Gallery.petersen);
      ("path P6", Families.path 6);
      ("complete K6", Families.complete 6);
    ]
  in
  let table =
    Table.create ("graph" :: List.map (fun p -> p.Distance_utility.name) profiles)
  in
  let ok = ref true in
  List.iter
    (fun (name, g) ->
      let cells =
        List.map
          (fun p -> Interval.to_string (Distance_utility.stable_alpha_set p g))
          profiles
      in
      Table.add_row table (name :: cells))
    subjects;
  (* the linear profile must coincide with the paper's analysis *)
  List.iter
    (fun (_, g) ->
      if
        not
          (Interval.equal
             (Distance_utility.stable_alpha_set Distance_utility.linear g)
             (Bcg.stable_alpha_set g))
      then ok := false)
    subjects;
  (* under pure connectivity any spanning connected graph with a redundant
     edge is unstable for every alpha, and trees are stable everywhere *)
  if
    not
      (Interval.equal
         (Distance_utility.stable_alpha_set Distance_utility.connectivity (Families.path 6))
         (Interval.open_closed Rat.zero Interval.Pos_inf))
  then ok := false;
  {
    id;
    title = "Extension - stability windows under generalized distance utilities";
    body =
      Table.render table
      ^ "\nLinear reproduces the paper exactly (asserted).  Quadratic utilities widen\n\
         windows upward (long detours are dreadful, so links are worth more);\n\
         hop-capped narrows them; pure connectivity keeps every tree stable at all\n\
         prices and kills every cyclic graph.\n";
    ok = !ok;
  }

(* ---------------- E18: BCG scaling in n ---------------- *)

let e18_bcg_scaling ~id ctx =
  let max_n = max ctx.n 7 in
  let sizes =
    let rec upto k = if k > max_n then [] else k :: upto (k + 1) in
    upto 5
  in
  let table =
    Table.create
      ("alpha" :: List.concat_map (fun n -> [ Printf.sprintf "avg PoA n=%d" n;
                                              Printf.sprintf "#eq n=%d" n ]) sizes)
  in
  let ok = ref true in
  let crossover_costs = [ Rat.of_int 2; Rat.of_int 4; Rat.of_int 8; Rat.of_int 16 ] in
  (* prewarm: annotation of each size fans out across the domain pool; the
     per-alpha rows below are then cheap filters over the cached lists and
     are themselves evaluated through the pool *)
  List.iter (fun n -> Source.iter (source_at ctx ~game:"bcg" n) (fun _ _ -> ())) sizes;
  let rows =
    Nf_util.Pool.parallel_map
      (fun alpha ->
        let cells =
          List.concat_map
            (fun n ->
              let stable = stable_at ctx ~game:"bcg" ~n ~alpha in
              let s = Poa.summarize Cost.Bcg ~alpha:(Rat.to_float alpha) stable in
              [
                (if s.Poa.count = 0 then "-" else Printf.sprintf "%.4f" s.Poa.average);
                string_of_int s.Poa.count;
              ])
            sizes
        in
        Rat.to_string alpha :: cells)
      (List.sort_uniq Rat.compare (Rat.make 1 2 :: Rat.one :: crossover_costs))
  in
  List.iter (Table.add_row table) rows;
  (* sanity: the efficient graph is always in the stable set, so the best
     PoA is 1 at every size (price of stability 1, as the paper notes) *)
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let stable = stable_at ctx ~game:"bcg" ~n ~alpha in
          let s = Poa.summarize Cost.Bcg ~alpha:(Rat.to_float alpha) stable in
          if s.Poa.count > 0 && s.Poa.best > 1.0 +. 1e-9 then ok := false)
        crossover_costs)
    sizes;
  {
    id;
    title = Printf.sprintf "Scaling - BCG average PoA as n grows (exhaustive to n=%d)" max_n;
    body =
      Table.render table
      ^ "\nThe welfare-optimal network is pairwise stable at every size (price of\n\
         stability 1, asserted), while the average over the growing stable set\n\
         drifts upward with n at intermediate link costs — the paper's hump\n\
         steepens toward its n=10 plots.\n";
    ok = !ok;
  }

(* ---------------- E20: proper equilibrium (Definition 5 / Prop 2) ----- *)

let e20_proper_equilibrium ~id _ =
  let buf = Buffer.create 512 in
  let ok = ref true in
  let threshold = 0.9 in
  let run_case name game alpha target expected =
    let reports = Proper.analyze game ~alpha ~target ~iterations:500 () in
    let verdict = Proper.is_proper_limit reports ~threshold in
    if verdict <> expected then ok := false;
    let final_mass =
      match List.rev reports with
      | r :: _ -> r.Proper.min_target_mass
      | [] -> nan
    in
    Buffer.add_string buf
      (Printf.sprintf "  %-42s alpha=%-5.2f mass@eps=0.01: %.4f  proper limit: %b\n" name
         alpha final_mass verdict)
  in
  Buffer.add_string buf "Numerical Definition 5 on the n=4 normal form (bounded distances):\n";
  let c4 = Families.cycle 4 in
  (match Convexity.witness_alpha c4 with
  | Some w ->
    run_case "C4 at its Prop-2 witness (link convex)" Cost.Bcg (Rat.to_float w)
      (Strategy.of_graph_bcg c4) true
  | None -> ok := false);
  run_case "star4, stable profile" Cost.Bcg 2.0 (Strategy.of_graph_bcg (Families.star 4)) true;
  run_case "K4 at alpha=1/2, stable profile" Cost.Bcg 0.5
    (Strategy.of_graph_bcg (Families.complete 4))
    true;
  run_case "K4 at alpha=3, NOT Nash (drops pay)" Cost.Bcg 3.0
    (Strategy.of_graph_bcg (Families.complete 4))
    false;
  run_case "P4 at alpha=3/2, Nash but not pairwise" Cost.Bcg 1.5
    (Strategy.of_graph_bcg (Families.path 4))
    true;
  Buffer.add_string buf
    "\nThe last row is the paper's §3 point in miniature: the P4 profile survives\n\
     every non-cooperative refinement (it is a proper limit) even though the\n\
     missing chord (0,3) is mutually profitable — only the pairwise (coalitional)\n\
     notion rules it out, which is why the BCG needs pairwise stability rather\n\
     than Nash refinements.\n";
  {
    id;
    title = "Definition 5 / Prop 2 - proper equilibria, numerically (n=4)";
    body = Buffer.contents buf;
    ok = !ok;
  }

(* ---------------- E21: stochastic stability (citation [22]) ----------- *)

let e21_stochastic_stability ~id _ =
  let n = 5 in
  let table =
    Table.create
      [ "alpha"; "#stable (labeled)"; "#stochastically stable"; "= connected stable?";
        "surviving classes" ]
  in
  let ok = ref true in
  (* each α's perturbed-dynamics analysis is independent: fan the rows out
     across the domain pool and assemble the table in grid order *)
  let rows =
    Nf_util.Pool.parallel_map
      (fun alpha ->
        let v = Nf_dynamics.Stochastic.analyze ~alpha ~n in
        let ss = v.Nf_dynamics.Stochastic.stochastically_stable in
        let connected_stable =
          List.filter Nf_graph.Connectivity.is_connected v.Nf_dynamics.Stochastic.stable
        in
        let same =
          List.length ss = List.length connected_stable
          && List.for_all Nf_graph.Connectivity.is_connected ss
        in
        let classes = Nf_dynamics.Stochastic.stochastically_stable_classes v in
        ( [
            Rat.to_string alpha;
            string_of_int (List.length v.Nf_dynamics.Stochastic.stable);
            string_of_int (List.length ss);
            string_of_bool same;
            Shapes.census_to_string (Shapes.census classes);
          ],
          same ))
      [ Rat.make 3 2; Rat.of_int 2; Rat.of_int 4; Rat.of_int 8 ]
  in
  List.iter
    (fun (cells, same) ->
      if not same then ok := false;
      Table.add_row table cells)
    rows;
  {
    id;
    title =
      Printf.sprintf
        "Stochastic stability (Tercieux-Vannetelbosch direction) at n=%d" n;
    body =
      Table.render table
      ^ "\nPerturbed Jackson-Watts dynamics with uniform mistakes: resistances between\n\
         stable states via 0/1-shortest paths, stochastic potential via minimum\n\
         in-arborescences.  Selection at this size is exactly connectivity: the\n\
         vacuously-stable disconnected states need >= 2 coordinated mistakes to\n\
         re-enter and drop out, while every connected pairwise stable network\n\
         survives (one mistake reaches a neighbouring basin in either direction).\n";
    ok = !ok;
  }

(* ---------------- E22: large-n Monte-Carlo vs asymptotic theory ---------------- *)

let e22_large_n_monte_carlo ~id _ =
  let n = 128 and trials = 2 in
  let ok = ref true in
  (* part 1: Monte-Carlo PoA estimates in the regime the paper's
     asymptotics describe, against the O(min(√α, n/√α)) reference curve.
     Sampled stable states are verified against the exact predicate —
     [Bcg.is_pairwise_stable] on a 100+-vertex graph is itself a
     multi-word-kernel workout. *)
  let mc_table =
    Table.create [ "n"; "alpha"; "converged"; "PoA mean"; "PoA max"; "min(sqrt a, n/sqrt a)" ]
  in
  List.iter
    (fun (n, alpha) ->
      let results = Nf_dynamics.Mc_poa.run ~n ~alpha ~trials ~seed:271828 () in
      let s = Nf_dynamics.Mc_poa.summarize ~n ~alpha results in
      let all_converged = s.Nf_dynamics.Mc_poa.converged_trials = trials in
      let finite_estimates =
        all_converged
        && Float.is_finite s.Nf_dynamics.Mc_poa.mean_poa
        && Float.is_finite s.Nf_dynamics.Mc_poa.max_poa
      in
      let stable_finals =
        List.for_all
          (fun t ->
            (not t.Nf_dynamics.Mc_poa.converged)
            || Bcg.is_pairwise_stable ~alpha t.Nf_dynamics.Mc_poa.final)
          results
      in
      if not (all_converged && finite_estimates && stable_finals) then ok := false;
      Table.add_row mc_table
        [
          string_of_int n;
          Rat.to_string alpha;
          Printf.sprintf "%d/%d" s.Nf_dynamics.Mc_poa.converged_trials trials;
          Printf.sprintf "%.4f" s.Nf_dynamics.Mc_poa.mean_poa;
          Printf.sprintf "%.4f" s.Nf_dynamics.Mc_poa.max_poa;
          Printf.sprintf "%.4f" s.Nf_dynamics.Mc_poa.theory_bound;
        ])
    [ (n / 2, Rat.of_int 4); (n, Rat.of_int 2); (n, Rat.of_int 4) ];
  (* part 2: the exact annotator at orders enumeration never reaches —
     Lemma 6's cycle window and the star's stability range, both now one
     [stable_alpha_set] call away at n in the hundreds *)
  let cyc_n = n in
  let cycle_set = Bcg.stable_alpha_set (Families.cycle cyc_n) in
  let lo, hi = Theory.cycle_window cyc_n in
  let cycle_ok =
    match Interval.bounds cycle_set with
    | Some (_, _, Interval.Finite hi_exact, _) -> Rat.(hi_exact > of_int 1)
    | Some (_, _, Interval.Pos_inf, _) -> true
    | _ -> false
  in
  if not cycle_ok then ok := false;
  let star_n = max 200 n in
  let star_set = Bcg.stable_alpha_set (Families.star star_n) in
  (* a large star is stable for every α ≥ 1: leaf-leaf additions gain
     exactly one unit of distance per endpoint, and severing a spoke
     disconnects the severing leaf *)
  let star_ok =
    Interval.mem (Rat.of_int 2) star_set
    &&
    match Interval.bounds star_set with
    | Some (_, _, Interval.Pos_inf, _) -> true
    | _ -> false
  in
  if not star_ok then ok := false;
  {
    id;
    title =
      Printf.sprintf
        "Large-n regime: Monte-Carlo PoA vs Proposition 4, exact families at n=%d..%d"
        cyc_n star_n;
    body =
      Table.render mc_table
      ^ Printf.sprintf
          "\n\
           C_%d: paper window (%s, %s]; exact stable set %s (stable above alpha=1: %b)\n\
           K_1,%d: exact stable set %s (contains alpha=2 and is unbounded: %b)\n\n\
           Sampled pairwise-stable states at these sizes sit far below the worst-case\n\
           PoA envelope: random better-response play lands on low-diameter, near-tree\n\
           networks, consistent with the paper's reading of Proposition 4 as a loose\n\
           upper bound.\n"
          cyc_n (Rat.to_string lo) (Rat.to_string hi) (Interval.to_string cycle_set)
          cycle_ok (star_n - 1) (Interval.to_string star_set) star_ok;
    ok = !ok;
  }

(* ---------------- E23: parameterized regimes ---------------- *)

let e23_parameterized_regimes ~id _ =
  let n = 5 in
  (* Figure 2/3-style sweeps through the registry's parameterized
     families.  The assertions are the layering facts the new games are
     built on: coalition resilience at k = 1 is exactly UCG Nash and at
     k = 2 exactly BCG pairwise stability (same counts point for point),
     a larger coalition bound only shrinks the equilibrium set, and the
     adversary ratios are true PoA (>= 1) against the enumerated optimum
     — min(star, clique) is NOT the adversary optimum, which is why the
     closed forms reject that model. *)
  let sweep name = Figures.sweep_game (Game_registry.find_exn name) (Source.of_game name n) in
  let bcg_pts = sweep "bcg"
  and ucg_pts = sweep "ucg"
  and adv_pts = sweep "adversary"
  and k1_pts = sweep "coalition:k=1"
  and k2_pts = sweep "coalition:k=2"
  and k3_pts = sweep "coalition:k=3" in
  let counts pts = List.map (fun p -> p.Figures.summary.Poa.count) pts in
  let ok_k1 = counts k1_pts = counts ucg_pts in
  let ok_k2 = counts k2_pts = counts bcg_pts in
  let ok_k3 = List.for_all2 ( >= ) (counts k2_pts) (counts k3_pts) in
  let ok_adv =
    adv_pts <> []
    && List.exists (fun p -> p.Figures.summary.Poa.count > 0) adv_pts
    && List.for_all
         (fun p ->
           p.Figures.summary.Poa.count = 0 || p.Figures.summary.Poa.best >= 1. -. 1e-9)
         adv_pts
  in
  let table =
    Table.create
      [ "link cost c"; "#bcg"; "#adv"; "avg PoA adv"; "avg links adv"; "avg links bcg";
        "#k=2"; "#k=3"; "#k=1"; "#ucg" ]
  in
  let cell v = if Float.is_nan v then "-" else Printf.sprintf "%.4f" v in
  List.iteri
    (fun i bcg_p ->
      let at pts = List.nth pts i in
      let adv_p = at adv_pts in
      Table.add_row table
        [
          Rat.to_string bcg_p.Figures.link_cost;
          string_of_int bcg_p.Figures.summary.Poa.count;
          string_of_int adv_p.Figures.summary.Poa.count;
          cell adv_p.Figures.summary.Poa.average;
          cell adv_p.Figures.summary.Poa.average_links;
          cell bcg_p.Figures.summary.Poa.average_links;
          string_of_int (at k2_pts).Figures.summary.Poa.count;
          string_of_int (at k3_pts).Figures.summary.Poa.count;
          string_of_int (at k1_pts).Figures.summary.Poa.count;
          string_of_int (at ucg_pts).Figures.summary.Poa.count;
        ])
    bcg_pts;
  {
    id;
    title =
      Printf.sprintf
        "Parameterized regimes - adversary and coalition-k sweeps (n=%d, exhaustive)" n;
    body =
      Table.render table ^ "\n" ^ Figures.game_plot adv_pts
      ^ "\nLayering (asserted per grid point): #k=1 = #ucg and #k=2 = #bcg exactly,\n\
         #k=3 <= #k=2.  The adversary column's PoA divides by the enumerated true\n\
         optimum; its equilibria carry extra links at intermediate cost — expected\n\
         bridge-failure separation makes redundant edges worth paying for.\n";
    ok = ok_k1 && ok_k2 && ok_k3 && ok_adv;
  }

(* ---------------- the table ---------------- *)

type entry = {
  id : string;
  run : ctx -> result;
}

(* the entry's id is written once, here, and stamped on its result *)
let entry id run = { id; run = run ~id }

let table =
  [
    entry "E1" e1_figure2;
    entry "E2" e2_figure3;
    entry "E3" e3_figure1_gallery;
    entry "E4" e4_lemma4;
    entry "E5" e5_lemma5;
    entry "E6" e6_lemma6_cycles;
    entry "E7" e7_prop3_moore;
    entry "E8" e8_prop4_upper_bound;
    entry "E9" e9_prop5_trees;
    entry "E10" e10_footnote5_cycles;
    entry "E11" e11_footnote7_petersen;
    entry "E12" e12_desargues;
    entry "E13" e13_eq5_bound;
    entry "E14" e14_transfers;
    entry "E15" e15_dynamics_and_prop2;
    entry "E16" e16_shape_census;
    entry "E17" e17_distance_utilities;
    entry "E18" e18_bcg_scaling;
    entry "E20" e20_proper_equilibrium;
    entry "E21" e21_stochastic_stability;
    entry "E22" e22_large_n_monte_carlo;
    entry "E23" e23_parameterized_regimes;
  ]

let find entries id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) entries

(* ---------------- per-game sweep (netform experiments --game) ---------------- *)

let game_sweep ~game packed ~id ({ n; _ } as ctx) =
  let points = Figures.sweep_game packed (source_at ctx ~game n) in
  (* sanity, not paper claims: the sweep is nonempty and every PoA ratio
     is >= 1 wherever an equilibrium exists *)
  let ok =
    points <> []
    && List.for_all
         (fun p ->
           p.Figures.summary.Poa.count = 0 || p.Figures.summary.Poa.best >= 1. -. 1e-9)
         points
  in
  {
    id;
    title = Printf.sprintf "single-game sweep: %s (n=%d, exhaustive)" game n;
    body = Figures.game_table points ^ "\n" ^ Figures.game_plot points;
    ok;
  }

let game_entry game = entry ("G:" ^ game) (game_sweep ~game (Game_registry.find_exn game))
