(** First-class connection games.

    The paper's empirical pipeline is the same for every game concept it
    studies: for each connected graph, compute the exact set of link
    costs [alpha] at which the graph is in equilibrium (its {e stable
    region}), then sweep that annotation over a cost grid.  This module
    captures the contract a game must satisfy for the whole pipeline —
    annotation ({!Equilibria}), figures ({!Figures}), the on-disk atlas
    ({!Nf_store}), improving-path dynamics and the CLI — to work with it
    unchanged.  {!Bcg}, {!Ucg}, {!Transfers} and {!Weighted_bcg} are the
    built-in instances; {!Game_registry} indexes them by name.

    Stable regions come in two shapes: a single rational interval (BCG,
    transfers, weighted BCG — Lemma 2 style threshold arguments) or a
    finite union of intervals (UCG Nash certification).  The
    {!Region.kind} witness lets generic code dispatch on the shape while
    each game keeps its precise region type. *)

module Graph = Nf_graph.Graph
module Kernel = Nf_graph.Kernel
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval

(** A single improving move in the pairwise dynamics.  [Add (i, j)]
    creates the link i–j (bilateral consent, or a joint contract under
    transfers); [Delete (i, j)] is player [i] unilaterally severing its
    link to [j] — the initiator matters for traces, so both
    [Delete (i, j)] and [Delete (j, i)] may be offered for one edge. *)
type move = Add of int * int | Delete of int * int

(** The two region shapes, as a GADT witness usable for typed cache
    recovery and generic membership tests. *)
module Region : sig
  type 'r kind =
    | Interval : Interval.t kind
    | Union : Interval.Union.t kind

  type ('a, 'b) eq = Equal : ('a, 'a) eq

  val same_kind : 'a kind -> 'b kind -> ('a, 'b) eq option
  (** [same_kind a b] is [Some Equal] when both witnesses are the same
      constructor, recovering the type equality. *)

  val is_empty : 'r kind -> 'r -> bool
  val mem : 'r kind -> Rat.t -> 'r -> bool
  val equal : 'r kind -> 'r -> 'r -> bool
  val to_string : 'r kind -> 'r -> string
  val pp : 'r kind -> Format.formatter -> 'r -> unit
end

(** What a connection game must provide.  The two annotators must be
    extensionally equal — [stable_region_ws] is the production
    (kernel-workspace, orbit-quotiented) path and
    [stable_region_reference] the persistent specification twin; the
    registry-driven differential suites in [test/test_kernel.ml] hold
    every registered game to that contract, and [is_stable] must agree
    with membership in the region. *)
val render_name : family:string -> params:string -> string
(** [family] when [params] is empty, else [family ^ ":" ^ params] — the
    one canonical instance-name form shared by the registry, the CLI and
    the store header. *)

module type S = sig
  type region

  val family : string
  (** The game family this instance belongs to ([[a-z0-9_]+]) — the
      deviation/cost model shared by every parameter point.  Equal to
      {!name} for degenerate (parameterless) instances. *)

  val params : string
  (** Canonical parameter string: comma-separated [key=value] tokens in
      the family's documented order (e.g. ["k=2"]), [""] for degenerate
      instances.  These exact bytes are stored append-only in NFATLAS1
      headers of parameterized stores, so they must be a pure function of
      the instance (no floats, no locale). *)

  val name : string
  (** Registry key, also the CLI spelling ([--game <name>]): always
      [render_name ~family ~params], i.e. [family\[:params\]]. *)

  val describe : string
  (** One-line human description for listings. *)

  val region_kind : region Region.kind

  val schema_tag : int
  (** Stable identifier for the on-disk atlas, part of the NFATLAS1
      header contract (DESIGN.md §10, §15): never reuse or renumber a
      tag.  Tags 0 (BCG) and 1 (UCG) are encoded as the original classic
      headers so pre-existing stores remain byte-identical.  Every
      instance of one parameterized family shares the family's tag — the
      header's parameter bytes ({!params}) tell the instances apart. *)

  val stable_region_ws : Kernel.t -> Nf_iso.Symmetry.t -> Graph.t -> region
  (** Exact stable region, computed on a borrowed kernel workspace (the
      graph is loaded by the callee; any toggles are undone), given a
      subgroup of the graph's automorphisms.  An isomorphism-invariant
      annotator may evaluate one representative pair per orbit
      ({!Nf_iso.Symmetry.iter_pair_reps}) or prune symmetric search
      branches, but must return a region {e structurally equal} to the
      one at [Symmetry.trivial n] — the differential harness in
      [test/test_orbit.ml] holds every registered game to that, and
      byte-identical stores depend on it.  A game whose annotator is not
      isomorphism-invariant (per-player weights), or simply not
      quotiented, ignores the subgroup. *)

  val stable_region_reference : Graph.t -> region
  (** Persistent-path specification twin of {!stable_region_ws}. *)

  val is_stable : alpha:Rat.t -> Graph.t -> bool
  (** Point certifier; agrees with [Region.mem region_kind alpha
      (stable_region_ws ws sym g)] for every graph and subgroup. *)

  val improving_moves : (alpha:Rat.t -> Graph.t -> move list) option
  (** Improving moves at [alpha] in a fixed documented order (so PRNG
      draws in the dynamics are reproducible), or [None] when the
      game's dynamics are not graph-local (UCG best response depends on
      link ownership, not just the graph). *)

  val alpha_of_link_cost : Rat.t -> Rat.t
  (** Per-player link cost [alpha] corresponding to a {e total} link
      cost [c] on the Figure 2/3 x-axis: [c/2] for bilateral games
      (both endpoints pay), [c] for unilateral ones. *)

  val cost_model : Cost.game
  (** Social-cost convention for price-of-anarchy summaries. *)
end

type 'r t = (module S with type region = 'r)
(** A game whose region type is ['r], as a first-class module. *)

type packed = Any : 'r t -> packed
(** A game with its region type hidden — what the registry stores and
    what name-driven code (CLI, scripts) manipulates. *)

val name : packed -> string
val params : packed -> string
val describe : packed -> string
val schema_tag : packed -> int
val has_moves : packed -> bool
val improving_moves : packed -> alpha:Rat.t -> Graph.t -> move list
(** @raise Invalid_argument when the game has no move generator. *)

val sweep_symmetry : Graph.t -> Nf_iso.Symmetry.t
(** The sweep-tier symmetry policy shared by bulk consumers (pooled
    annotation, store chunk workers): {!Nf_iso.Symmetry.detect_twins}
    when the quotient is enabled, the trivial subgroup otherwise. *)
