module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

type family_info = {
  family : string;
  schema_tag : int;
  grammar : string;
  describe : string;
  example : string;
}

(* ---- built-in instances -------------------------------------------------
   Defined here rather than next to each game so that linking any consumer
   of the registry is enough to pull in every built-in — module
   initializers of otherwise-unreferenced library modules are dropped by
   the linker. *)

module Bcg_game = struct
  type region = Interval.t

  let family = "bcg"
  let params = ""
  let name = Game.render_name ~family ~params
  let describe = "bilateral connection game: pairwise stability (Definition 3)"
  let region_kind = Game.Region.Interval
  let schema_tag = 0
  let stable_region_ws = Bcg.stable_alpha_set_sym_ws
  let pricing = Some Bcg.price
  let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
  let cost_model = Cost.Bcg
end

module Ucg_game = struct
  type region = Interval.Union.t

  let family = "ucg"
  let params = ""
  let name = Game.render_name ~family ~params
  let describe = "unilateral connection game: Nash graphs (Fabrikant et al.)"
  let region_kind = Game.Region.Union
  let schema_tag = 1
  let stable_region_ws = Ucg.nash_alpha_set_sym_ws
  let pricing = None
  let alpha_of_link_cost c = c
  let cost_model = Cost.Ucg
end

module Transfers_game = struct
  type region = Interval.t

  let family = "transfers"
  let params = ""
  let name = Game.render_name ~family ~params
  let describe = "pairwise stability with transfers (joint-surplus link decisions)"
  let region_kind = Game.Region.Interval
  let schema_tag = 2
  let stable_region_ws = Transfers.stable_alpha_set_sym_ws
  let pricing = Some Transfers.price
  let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
  let cost_model = Cost.Bcg
end

module Weighted_bcg_game = struct
  include (val Weighted_bcg.make ~weight:Weighted_bcg.default_weight)

  let describe =
    "bilateral connection game, per-player link-cost multipliers (w_i = 1 + i mod 2)"
end

let bcg : Interval.t Game.t = (module Bcg_game)
let ucg : Interval.Union.t Game.t = (module Ucg_game)
let transfers : Interval.t Game.t = (module Transfers_game)
let weighted_bcg : Interval.t Game.t = (module Weighted_bcg_game)
let adversary : Interval.t Game.t = Adversary.game

(* ---- the table ----------------------------------------------------------
   One row per degenerate game or parameterized family, in listing order.
   Every instance is built once, here, so lookups share it across domains
   and spellings ("coalition:k=02" is "coalition:k=2"). *)

type family = {
  info : family_info;
  default : Game.packed option;  (* the member a bare family name means *)
  parse : string list -> Game.packed;  (* from the tokens after the colon *)
}

type row = Game of Game.packed | Family of family

let adversary_member = Game.Any adversary

let coalition_members =
  Array.init 8 (fun i -> Game.Any (Coalition.make ~k:(i + 1)))

(* The adversary family's only parameter today is the attack model, and
   "bridge" is the only (and default) one — so "adversary" and
   "adversary:bridge" are the same degenerate instance. *)
let parse_adversary = function
  | [] | [ "bridge" ] -> adversary_member
  | tokens ->
    invalid_arg
      (Printf.sprintf
         "game family \"adversary\" takes no parameters beyond the attack \
          model \"bridge\" (got %S)"
         (String.concat "," tokens))

let parse_coalition = function
  | [ token ] -> (
    match String.index_opt token '=' with
    | Some 1 when token.[0] = 'k' -> (
      let v = String.sub token 2 (String.length token - 2) in
      (* ASCII decimal digits only: int_of_string would also take a sign,
         "0x"/"0b" prefixes and "_" separators *)
      let decimal = v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v in
      match if decimal then int_of_string_opt v else None with
      | Some k when k >= 1 && k <= Array.length coalition_members ->
        coalition_members.(k - 1)
      (* out of range: Coalition.make raises with the family's bounds *)
      | Some k -> Game.Any (Coalition.make ~k)
      | None ->
        invalid_arg
          (Printf.sprintf "game family \"coalition\": k must be an integer (got %S)" v))
    | _ ->
      invalid_arg
        (Printf.sprintf "game family \"coalition\": expected k=<1..8>, got %S" token))
  | tokens ->
    invalid_arg
      (Printf.sprintf "game family \"coalition\": expected exactly k=<1..8>, got %S"
         (String.concat "," tokens))

let table =
  [
    Game (Game.Any bcg);
    Game (Game.Any ucg);
    Game (Game.Any transfers);
    Game (Game.Any weighted_bcg);
    Family
      {
        info =
          {
            family = "adversary";
            schema_tag = 4;
            grammar = "adversary[:bridge]";
            describe = Game.describe adversary_member;
            example = "adversary";
          };
        default = Some adversary_member;
        parse = parse_adversary;
      };
    Family
      {
        info =
          {
            family = Coalition.family_name;
            schema_tag = 5;
            grammar = "coalition:k=<1..8>";
            describe =
              "coalitional stability: no coalition of size <= k can profitably \
               form its absent internal links (k=1 is the UCG Nash region, k=2 \
               pairwise stability)";
            example = "coalition:k=2";
          };
        default = None;
        parse = parse_coalition;
      };
  ]

let head_of name =
  match String.index_opt name ':' with
  | None -> name
  | Some i -> String.sub name 0 i

let all () =
  List.filter_map (function Game g -> Some g | Family f -> f.default) table

let names () = List.map Game.name (all ())
let families () = List.filter_map (function Family f -> Some f.info | Game _ -> None) table

let find name =
  match
    List.find_map
      (function Game g when String.equal (Game.name g) name -> Some g | _ -> None)
      table
  with
  | Some g -> Some g
  | None -> (
    let head = head_of name in
    match
      List.find_map
        (function Family f when String.equal f.info.family head -> Some f | _ -> None)
        table
    with
    | None -> None
    | Some f when String.equal head name -> (
      match f.default with
      | Some g -> Some g
      | None ->
        invalid_arg
          (Printf.sprintf "game family %S needs parameters: %s (e.g. %S)" head
             f.info.grammar f.info.example))
    | Some f ->
      let skip = String.length head + 1 in
      let rest = String.sub name skip (String.length name - skip) in
      Some (f.parse (String.split_on_char ',' rest)))

let find_exn name =
  match find name with
  | Some g -> g
  | None ->
    invalid_arg
      (Printf.sprintf "unknown game %S (registered: %s; families: %s)" name
         (String.concat ", " (names ()))
         (String.concat ", " (List.map (fun i -> i.grammar) (families ()))))

let resolve_tag tag ~params =
  List.find_map
    (function
      | Game g when Game.schema_tag g = tag && String.equal (Game.params g) params -> Some g
      | Family f when f.info.schema_tag = tag -> (
        match (params, f.default) with
        | "", Some g -> Some g
        | "", None -> Some (f.parse [])
        | _ -> Some (f.parse (String.split_on_char ',' params)))
      | _ -> None)
    table

let ci_instances () =
  let base = all () in
  base
  @ List.filter_map
      (fun i ->
        let g = find_exn i.example in
        if List.memq g base then None else Some g)
      (families ())
