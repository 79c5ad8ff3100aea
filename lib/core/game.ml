module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

type move = Add of int * int | Delete of int * int

module Region = struct
  type 'r kind =
    | Interval : Interval.t kind
    | Union : Interval.Union.t kind

  type ('a, 'b) eq = Equal : ('a, 'a) eq

  let same_kind : type a b. a kind -> b kind -> (a, b) eq option =
   fun a b ->
    match (a, b) with
    | Interval, Interval -> Some Equal
    | Union, Union -> Some Equal
    | Interval, Union | Union, Interval -> None

  let is_empty : type r. r kind -> r -> bool =
   fun kind r ->
    match kind with
    | Interval -> Interval.is_empty r
    | Union -> Interval.Union.is_empty r

  let mem : type r. r kind -> Rat.t -> r -> bool =
   fun kind alpha r ->
    match kind with
    | Interval -> Interval.mem alpha r
    | Union -> Interval.Union.mem alpha r

  let equal : type r. r kind -> r -> r -> bool =
   fun kind a b ->
    match kind with
    | Interval -> Interval.equal a b
    | Union -> Interval.Union.equal a b

  let to_string : type r. r kind -> r -> string =
   fun kind r ->
    match kind with
    | Interval -> Interval.to_string r
    | Union -> Interval.Union.to_string r

  let pp kind fmt r = Format.pp_print_string fmt (to_string kind r)
end

(* An instance name is its family name plus the canonical parameter
   string: "bcg", "coalition:k=2", "weighted_bcg:w=3".  [params] is
   exactly the part after the colon ("" for degenerate instances), and
   doubles as the store header's parameter bytes — so the name, the CLI
   spelling, and the on-disk identity are all one string. *)
let render_name ~family ~params = if params = "" then family else family ^ ":" ^ params

module type S = sig
  type region

  val family : string
  val params : string
  val name : string
  val describe : string
  val region_kind : region Region.kind
  val schema_tag : int
  val stable_region_ws : Kernel.t -> Nf_iso.Symmetry.t -> Graph.t -> region
  val stable_region_reference : Graph.t -> region
  val is_stable : alpha:Rat.t -> Graph.t -> bool
  val improving_moves : (alpha:Rat.t -> Graph.t -> move list) option
  val alpha_of_link_cost : Rat.t -> Rat.t
  val cost_model : Cost.game
end

type 'r t = (module S with type region = 'r)
type packed = Any : 'r t -> packed

let name (Any (module G)) = G.name
let params (Any (module G)) = G.params
let describe (Any (module G)) = G.describe
let schema_tag (Any (module G)) = G.schema_tag
let has_moves (Any (module G)) = Option.is_some G.improving_moves

let improving_moves (Any (module G)) ~alpha g =
  match G.improving_moves with
  | Some f -> f ~alpha g
  | None ->
    invalid_arg
      (Printf.sprintf "Game.improving_moves: game %s has no move generator"
         G.name)

(* The sweep-tier symmetry policy shared by every bulk consumer (pooled
   annotation, store chunk workers): twin detection, whose per-graph cost
   is far below one edge toggle, gated by the global opt-out.  One-off
   entry points with expensive annotations (UCG orientation search,
   gallery graphs) upgrade to Canon.full themselves. *)
let sweep_symmetry g =
  if Nf_iso.Symmetry.quotient_enabled () then Nf_iso.Symmetry.detect_twins g
  else Nf_iso.Symmetry.trivial (Graph.order g)
