(** The game registry: every {!Game} instance the pipeline knows about,
    keyed by name — including {e parameterized families}, whose members
    are instantiated on demand from names like ["coalition:k=2"].

    The built-ins — [bcg], [ucg], [transfers], [weighted_bcg], the
    [adversary] family (degenerate: one default member) and the
    [coalition] family — are registered when this module is initialized,
    which happens whenever any consumer of the registry is linked;
    downstream layers ({!Nf_analysis.Equilibria} caches, {!Nf_store}
    schema dispatch, the dynamics and the CLI's [--game] flags) iterate
    or look up here rather than enumerating games by hand, so
    registering a new instance or family is the {e only} wiring a new
    game needs (DESIGN.md §10 and §15 walk through it). *)

(** A parameterized family's listing card (CLI [games] output). *)
type family_info = {
  family : string;  (** family name, [[a-z0-9_]+] *)
  schema_tag : int;  (** shared by every member; params tell them apart *)
  grammar : string;  (** parameter grammar, e.g. ["coalition:k=<1..8>"] *)
  describe : string;
  example : string;  (** one canonical member name, e.g. ["coalition:k=2"] *)
}

val register : Game.packed -> unit
(** Add a degenerate (fully-applied) game.  The instance's [family] must
    be non-empty [[a-z0-9_]+] and its [name] must equal
    [Game.render_name ~family ~params]; the name may not collide with
    any registered game or family (nor claim a family's [:]-namespace),
    and the schema tag must be fresh — collisions are rejected with a
    message naming the prior registrant.
    @raise Invalid_argument on any violation. *)

val register_family :
  name:string ->
  schema_tag:int ->
  grammar:string ->
  describe:string ->
  example:string ->
  ?default:string list ->
  (string list -> Game.packed) ->
  unit
(** Add a parameterized family.  [instantiate] receives the
    comma-separated parameter tokens after the colon (e.g. [["k=2"]])
    and must return an instance of this family (same family name, the
    family's schema tag, canonical name form) — lookups validate that
    and memoize the result per canonical name.  When [default] is given,
    the family contributes [instantiate default] to {!all} (the
    family's standing representative); without it the family only
    resolves through explicit parameters.  Name and tag collisions are
    rejected exactly as in {!register}.
    @raise Invalid_argument on a bad name or a collision. *)

val all : unit -> Game.packed list
(** Every registered game, in registration order (built-ins first) —
    deterministic, so registry-driven tests and CI smokes are stable.
    Families appear through their default member ([adversary] does,
    [coalition] does not); non-default members resolved by {!find} are
    {e not} listed. *)

val names : unit -> string list
(** [List.map Game.name (all ())]. *)

val families : unit -> family_info list
(** The registered parameterized families, in registration order. *)

val ci_instances : unit -> Game.packed list
(** {!all} plus one example member of each family not already
    represented there (currently: plus ["coalition:k=2"]) — the instance
    set CI smokes and exhaustiveness tests iterate so parameterized
    families cannot silently drop out of coverage. *)

val find : string -> Game.packed option
(** Resolve a name.  Exact instance names win; otherwise the part before
    [':'] selects a family, which instantiates from the comma-separated
    tokens after it (memoized, so repeated lookups share one module).  A
    bare family name resolves to its default member.
    [None] only for names that designate no instance and no family.
    @raise Invalid_argument for a known family given invalid parameters
    (including a bare name of a family with no default). *)

val find_exn : string -> Game.packed
(** @raise Invalid_argument on an unknown name, listing the known
    instances and family grammars. *)

val resolve_tag : int -> params:string -> Game.packed option
(** Lookup by store schema identity — the tag plus the header's exact
    parameter bytes (atlas headers record those, not the name):
    a degenerate instance matches on [params = ""], a family
    re-instantiates the member from the bytes.
    @raise Invalid_argument when the tag names a family but the bytes do
    not parse under its grammar. *)

(** The built-ins, also exposed with their region types for typed
    callers: *)

val bcg : Nf_util.Interval.t Game.t
val ucg : Nf_util.Interval.Union.t Game.t
val transfers : Nf_util.Interval.t Game.t

val weighted_bcg : Nf_util.Interval.t Game.t
(** {!Weighted_bcg.make} over {!Weighted_bcg.default_weight}. *)

val adversary : Nf_util.Interval.t Game.t
(** {!Adversary.game} — the ["adversary"] family's default (and only)
    member.  Coalition members come from {!Coalition.make} or
    [find "coalition:k=<n>"]. *)
