module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

type family_info = {
  family : string;
  schema_tag : int;
  grammar : string;
  describe : string;
  example : string;
}

type family = {
  info : family_info;
  default : string list option;
  instantiate : string list -> Game.packed;
}

(* One ordered table of both entry kinds, so listings, collision checks
   and tag resolution see instances and parameterized families
   uniformly, in registration order. *)
type entry = Instance of Game.packed | Family of family

let entries : entry list ref = ref []

(* Instantiated family members, keyed by canonical instance name, so
   repeated lookups of "coalition:k=2" share one module (and one
   registration-time validation). *)
let memo : (string, Game.packed) Hashtbl.t = Hashtbl.create 16

let entry_name = function Instance g -> Game.name g | Family f -> f.info.family
let entry_tag = function Instance g -> Game.schema_tag g | Family f -> f.info.schema_tag
let entry_kind = function Instance _ -> "game" | Family _ -> "family"

let head_of name =
  match String.index_opt name ':' with
  | None -> name
  | Some i -> String.sub name 0 i

let is_family_chars s =
  String.length s > 0
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) s

(* Both collision axes reject with the prior registrant named: a fresh
   name may not equal an existing entry's name, claim an existing
   family's namespace (its head is that family), or be a family name
   some registered instance already lives under. *)
let check_fresh ~what ~name ~tag =
  List.iter
    (fun e ->
      let other = entry_name e in
      if
        String.equal other name
        || String.equal other (head_of name)
        || String.equal (head_of other) name
      then
        invalid_arg
          (Printf.sprintf
             "Game_registry.register: cannot register %s %S: name already \
              taken by %s %S"
             what name (entry_kind e) other);
      if entry_tag e = tag then
        invalid_arg
          (Printf.sprintf
             "Game_registry.register: cannot register %s %S: schema tag %d \
              already taken by %s %S"
             what name tag (entry_kind e) other))
    !entries

let register (Game.Any (module G) as packed) =
  if not (is_family_chars G.family) then
    invalid_arg (Printf.sprintf "Game_registry.register: bad family name %S" G.family);
  if not (String.equal G.name (Game.render_name ~family:G.family ~params:G.params)) then
    invalid_arg
      (Printf.sprintf
         "Game_registry.register: name %S is not its family %S plus params %S"
         G.name G.family G.params);
  check_fresh ~what:"game" ~name:G.name ~tag:G.schema_tag;
  entries := !entries @ [ Instance packed ]

let register_family ~name ~schema_tag ~grammar ~describe ~example ?default
    instantiate =
  if not (is_family_chars name) then
    invalid_arg (Printf.sprintf "Game_registry.register_family: bad family name %S" name);
  check_fresh ~what:"family" ~name ~tag:schema_tag;
  entries :=
    !entries
    @ [
        Family
          {
            info = { family = name; schema_tag; grammar; describe; example };
            default;
            instantiate;
          };
      ]

(* Every instance a family hands back must actually belong to it — same
   family name, the family's schema tag, and the canonical name form —
   or the store header params / tag round-trip would lie. *)
let instantiate_checked f tokens =
  let (Game.Any (module G) as packed) = f.instantiate tokens in
  if
    (not (String.equal G.family f.info.family))
    || G.schema_tag <> f.info.schema_tag
    || not (String.equal G.name (Game.render_name ~family:G.family ~params:G.params))
  then
    invalid_arg
      (Printf.sprintf
         "Game_registry: family %S produced instance %S (family %S, tag %d) \
          violating the family contract (tag %d expected)"
         f.info.family G.name G.family G.schema_tag f.info.schema_tag);
  match Hashtbl.find_opt memo G.name with
  | Some existing -> existing
  | None ->
    Hashtbl.add memo G.name packed;
    packed

let find_family name =
  List.find_map
    (function Family f when String.equal f.info.family name -> Some f | _ -> None)
    !entries

let all () =
  List.filter_map
    (function
      | Instance g -> Some g
      | Family f -> Option.map (instantiate_checked f) f.default)
    !entries

let names () = List.map Game.name (all ())

let families () =
  List.filter_map (function Family f -> Some f.info | _ -> None) !entries

let find name =
  match
    List.find_map
      (function
        | Instance g when String.equal (Game.name g) name -> Some g
        | _ -> None)
      !entries
  with
  | Some g -> Some g
  | None -> (
    let head = head_of name in
    match find_family head with
    | None -> None
    | Some f ->
      if String.equal head name then begin
        match f.default with
        | Some tokens -> Some (instantiate_checked f tokens)
        | None ->
          invalid_arg
            (Printf.sprintf "game family %S needs parameters: %s (e.g. %S)"
               head f.info.grammar f.info.example)
      end
      else begin
        let skip = String.length head + 1 in
        let rest = String.sub name skip (String.length name - skip) in
        Some (instantiate_checked f (String.split_on_char ',' rest))
      end)

let find_exn name =
  match find name with
  | Some g -> g
  | None ->
    let fams = families () in
    let fam_part =
      if fams = [] then ""
      else
        Printf.sprintf "; families: %s"
          (String.concat ", " (List.map (fun i -> i.grammar) fams))
    in
    invalid_arg
      (Printf.sprintf "unknown game %S (registered: %s%s)" name
         (String.concat ", " (names ()))
         fam_part)

let resolve_tag tag ~params =
  match
    List.find_map
      (function
        | Instance g
          when Game.schema_tag g = tag && String.equal (Game.params g) params ->
          Some g
        | _ -> None)
      !entries
  with
  | Some g -> Some g
  | None -> (
    match
      List.find_map
        (function Family f when f.info.schema_tag = tag -> Some f | _ -> None)
        !entries
    with
    | None -> None
    | Some f ->
      let tokens =
        if params = "" then Option.value f.default ~default:[]
        else String.split_on_char ',' params
      in
      Some (instantiate_checked f tokens))

let ci_instances () =
  let base = all () in
  let covered = List.map Game.name base in
  base
  @ List.filter_map
      (function
        | Instance _ -> None
        | Family f -> (
          match find f.info.example with
          | Some g when not (List.mem (Game.name g) covered) -> Some g
          | _ -> None))
      !entries

(* ---- built-in instances -------------------------------------------------
   Defined here rather than next to each game so that linking any consumer
   of the registry is enough to pull in (and register) every built-in —
   module initializers of otherwise-unreferenced library modules are
   dropped by the linker. *)

module Bcg_game = struct
  type region = Interval.t

  let family = "bcg"
  let params = ""
  let name = Game.render_name ~family ~params
  let describe = "bilateral connection game: pairwise stability (Definition 3)"
  let region_kind = Game.Region.Interval
  let schema_tag = 0
  let stable_region_ws = Bcg.stable_alpha_set_sym_ws
  let stable_region_reference = Bcg.stable_alpha_set_reference
  let is_stable = Bcg.is_pairwise_stable
  let improving_moves = Some Bcg.improving_moves
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
  let stable_region_reference = Ucg.nash_alpha_set_reference
  let is_stable = Ucg.is_nash_graph
  let improving_moves = None
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
  let stable_region_reference = Transfers.stable_alpha_set_reference
  let is_stable = Transfers.is_stable
  let improving_moves = Some Transfers.improving_moves
  let alpha_of_link_cost c = Rat.div c (Rat.of_int 2)
  let cost_model = Cost.Bcg
end

let bcg : Interval.t Game.t = (module Bcg_game)
let ucg : Interval.Union.t Game.t = (module Ucg_game)
let transfers : Interval.t Game.t = (module Transfers_game)

let weighted_bcg : Interval.t Game.t =
  Weighted_bcg.make ~name:"weighted_bcg"
    ~describe:
      (Printf.sprintf
         "bilateral connection game, per-player link-cost multipliers (w_i = 1 + i mod 2)")
    ~schema_tag:3 ~weight:Weighted_bcg.default_weight ()

let adversary : Interval.t Game.t = Adversary.game

let () =
  register (Game.Any bcg);
  register (Game.Any ucg);
  register (Game.Any transfers);
  register (Game.Any weighted_bcg);
  (* The adversary family's only parameter today is the attack model,
     and "bridge" is the only (and default) one — so "adversary" and
     "adversary:bridge" resolve to the same degenerate instance. *)
  register_family ~name:"adversary" ~schema_tag:4 ~grammar:"adversary[:bridge]"
    ~describe:(Game.describe (Game.Any adversary))
    ~example:"adversary" ~default:[]
    (function
      | [] | [ "bridge" ] -> Game.Any adversary
      | tokens ->
        invalid_arg
          (Printf.sprintf
             "game family \"adversary\" takes no parameters beyond the attack \
              model \"bridge\" (got %S)"
             (String.concat "," tokens)));
  register_family ~name:Coalition.family_name ~schema_tag:5
    ~grammar:"coalition:k=<1..8>"
    ~describe:
      "coalitional stability: no coalition of size <= k can profitably form \
       its absent internal links (k=1 is the UCG Nash region, k=2 pairwise \
       stability)"
    ~example:"coalition:k=2"
    (function
      | [ token ] -> (
        match String.index_opt token '=' with
        | Some 1 when token.[0] = 'k' -> (
          let v = String.sub token 2 (String.length token - 2) in
          match int_of_string_opt v with
          | Some k -> Game.Any (Coalition.make ~k)
          | None ->
            invalid_arg
              (Printf.sprintf
                 "game family \"coalition\": k must be an integer (got %S)" v))
        | _ ->
          invalid_arg
            (Printf.sprintf
               "game family \"coalition\": expected k=<1..8>, got %S" token))
      | tokens ->
        invalid_arg
          (Printf.sprintf
             "game family \"coalition\": expected exactly k=<1..8>, got %S"
             (String.concat "," tokens)))
