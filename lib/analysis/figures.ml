module Rat = Nf_util.Rat
open Netform

type point = {
  total_link_cost : Rat.t;
  ucg : Poa.summary;
  bcg : Poa.summary;
}

let summarize model alpha graphs = Poa.summarize model ~alpha:(Rat.to_float alpha) graphs

let sweep_source ?(grid = Sweep.paper_grid) source =
  List.map
    (fun c ->
      let alpha_bcg = Rat.div c (Rat.of_int 2) in
      {
        total_link_cost = c;
        ucg = summarize Cost.Ucg c (Source.stable source ~game:"ucg" ~alpha:c);
        bcg = summarize Cost.Bcg alpha_bcg (Source.stable source ~game:"bcg" ~alpha:alpha_bcg);
      })
    grid

let sweep ~n ?grid () = sweep_source ?grid (Source.classic n)

(* ---- single-game sweeps (any registered game) ------------------------- *)

type game_point = {
  game : string;
  link_cost : Rat.t;
  alpha : Rat.t;
  summary : Poa.summary;
}

let sweep_game (Game.Any (module G)) ?(grid = Sweep.paper_grid) source =
  List.map
    (fun c ->
      let alpha = G.alpha_of_link_cost c in
      {
        game = G.name;
        link_cost = c;
        alpha;
        summary = summarize G.cost_model alpha (Source.stable source ~game:G.name ~alpha);
      })
    grid

let fmt_or_dash v = if Float.is_nan v then "-" else Printf.sprintf "%.4f" v

let figure2_table points =
  let table =
    Nf_util.Table.create
      [ "link cost c"; "#UCG eq"; "avg PoA UCG"; "#BCG eq"; "avg PoA BCG"; "worst UCG"; "worst BCG" ]
  in
  List.iter
    (fun p ->
      Nf_util.Table.add_row table
        [
          Rat.to_string p.total_link_cost;
          string_of_int p.ucg.Poa.count;
          fmt_or_dash p.ucg.Poa.average;
          string_of_int p.bcg.Poa.count;
          fmt_or_dash p.bcg.Poa.average;
          fmt_or_dash p.ucg.Poa.worst;
          fmt_or_dash p.bcg.Poa.worst;
        ])
    points;
  Nf_util.Table.render table

let figure3_table points =
  let table =
    Nf_util.Table.create [ "link cost c"; "#UCG eq"; "avg links UCG"; "#BCG eq"; "avg links BCG" ]
  in
  List.iter
    (fun p ->
      Nf_util.Table.add_row table
        [
          Rat.to_string p.total_link_cost;
          string_of_int p.ucg.Poa.count;
          fmt_or_dash p.ucg.Poa.average_links;
          string_of_int p.bcg.Poa.count;
          fmt_or_dash p.bcg.Poa.average_links;
        ])
    points;
  Nf_util.Table.render table

let series_of points extract =
  List.filter_map
    (fun p ->
      let y = extract p in
      if Float.is_nan y then None
      else Some (Float.log (Rat.to_float p.total_link_cost) /. Float.log 2.0, y))
    points

let figure2_plot points =
  Nf_util.Ascii_plot.render ~x_label:"log2(total link cost)" ~y_label:"average PoA"
    ~title:"Figure 2: average price of anarchy of equilibrium networks"
    [
      { Nf_util.Ascii_plot.label = "UCG (Nash graphs)"; marker = 'u';
        points = series_of points (fun p -> p.ucg.Poa.average) };
      { Nf_util.Ascii_plot.label = "BCG (pairwise stable)"; marker = 'b';
        points = series_of points (fun p -> p.bcg.Poa.average) };
    ]

let figure3_plot points =
  Nf_util.Ascii_plot.render ~x_label:"log2(total link cost)" ~y_label:"average #links"
    ~title:"Figure 3: average number of links in equilibrium networks"
    [
      { Nf_util.Ascii_plot.label = "UCG (Nash graphs)"; marker = 'u';
        points = series_of points (fun p -> p.ucg.Poa.average_links) };
      { Nf_util.Ascii_plot.label = "BCG (pairwise stable)"; marker = 'b';
        points = series_of points (fun p -> p.bcg.Poa.average_links) };
    ]

let game_table points =
  let table =
    Nf_util.Table.create
      [ "link cost c"; "alpha"; "#eq"; "avg PoA"; "worst PoA"; "best PoA"; "avg links" ]
  in
  List.iter
    (fun p ->
      Nf_util.Table.add_row table
        [
          Rat.to_string p.link_cost;
          Rat.to_string p.alpha;
          string_of_int p.summary.Poa.count;
          fmt_or_dash p.summary.Poa.average;
          fmt_or_dash p.summary.Poa.worst;
          fmt_or_dash p.summary.Poa.best;
          fmt_or_dash p.summary.Poa.average_links;
        ])
    points;
  Nf_util.Table.render table

let game_series points extract =
  List.filter_map
    (fun p ->
      let y = extract p in
      if Float.is_nan y then None
      else Some (Float.log (Rat.to_float p.link_cost) /. Float.log 2.0, y))
    points

let game_plot points =
  let name = match points with p :: _ -> p.game | [] -> "?" in
  Nf_util.Ascii_plot.render ~x_label:"log2(total link cost)" ~y_label:"avg PoA / avg #links"
    ~title:(Printf.sprintf "Equilibrium sweep: %s" name)
    [
      { Nf_util.Ascii_plot.label = name ^ " avg PoA"; marker = 'p';
        points = game_series points (fun p -> p.summary.Poa.average) };
      { Nf_util.Ascii_plot.label = name ^ " avg #links"; marker = 'l';
        points = game_series points (fun p -> p.summary.Poa.average_links) };
    ]

let game_csv points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "game,total_link_cost,alpha,count,avg_poa,worst_poa,best_poa,avg_links\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%f,%f,%f,%f\n" p.game
           (Rat.to_string p.link_cost) (Rat.to_string p.alpha)
           p.summary.Poa.count p.summary.Poa.average p.summary.Poa.worst
           p.summary.Poa.best p.summary.Poa.average_links))
    points;
  Buffer.contents buf

let to_csv points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "total_link_cost,ucg_count,ucg_avg_poa,ucg_worst_poa,ucg_avg_links,bcg_count,bcg_avg_poa,bcg_worst_poa,bcg_avg_links\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%f,%f,%f,%d,%f,%f,%f\n"
           (Rat.to_string p.total_link_cost)
           p.ucg.Poa.count p.ucg.Poa.average p.ucg.Poa.worst p.ucg.Poa.average_links
           p.bcg.Poa.count p.bcg.Poa.average p.bcg.Poa.worst p.bcg.Poa.average_links))
    points;
  Buffer.contents buf

(* ---- the figure of a source ------------------------------------------- *)

type figure = Pair of point list | Single of game_point list

let figure ?game ?grid source =
  match (game, Source.content source) with
  | None, Nf_store.Layout.Classic { with_ucg = true } -> Pair (sweep_source ?grid source)
  | _ ->
    let name = Option.value game ~default:(Source.game source) in
    Single (sweep_game (Game_registry.find_exn name) ?grid source)

let render = function
  | Pair points ->
    String.concat "\n"
      [ figure2_table points; figure2_plot points; figure3_table points; figure3_plot points ]
  | Single points -> game_table points ^ "\n" ^ game_plot points

let csv = function Pair points -> to_csv points | Single points -> game_csv points
