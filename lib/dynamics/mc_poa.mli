(** Large-n Monte-Carlo price-of-anarchy estimation for the pairwise
    games.

    The exhaustive annotators stop where enumeration stops; this module
    samples the large-n regime the paper's asymptotic claims live in:
    seeded random initial graphs (G(n,p), p ≈ (ln n + 1)/n by default), a
    randomized first-improvement better-response walk over the C(n,2)
    pair slots executed entirely inside a kernel workspace, and the
    exact-rational social cost of the converged pairwise-stable states
    against the star/clique closed-form optimum, reported alongside
    [Theory.poa_upper_bound].

    Every game with a {!Netform.Game.S.pricing} walks the same way: each
    slot is priced by the game's pricing on cached distance rows and
    judged by {!Netform.Pairwise.improves} (bilateral addition consent,
    unilateral deletion), so a converged trial satisfies
    {!Netform.Pairwise.is_stable} under that pricing by construction —
    and the test suite pins that differentially.

    Determinism: one base seed derives an independent PRNG per trial and
    [Pool.parallel_map] preserves input order, so runs are byte-identical
    whatever the pool width. *)

type trial = {
  index : int;  (** trial number within the run *)
  seed : int;  (** derived per-trial PRNG seed *)
  init_edges : int;
  moves : int;  (** improving moves applied *)
  evals : int;  (** pair slots evaluated (the convergence-time measure) *)
  converged : bool;  (** reached a pairwise-stable state within the budget *)
  final_edges : int;
  diameter : int;  (** of the final graph; [-1] when disconnected *)
  social_cost : Nf_util.Rat.t option;
      (** exact [2αm + W] under the game's cost model (plus the expected
          separation for the adversary); [None] if disconnected *)
  poa : Nf_util.Rat.t option;  (** social cost / the game's star/clique baseline *)
  final : Nf_graph.Graph.t;
}

type summary = {
  n : int;
  alpha : Nf_util.Rat.t;
  trials : int;
  converged_trials : int;
  mean_poa : float;  (** over converged trials; [nan] when none *)
  max_poa : float;
  mean_moves : float;
  max_evals_seen : int;
  theory_bound : float;  (** [Theory.poa_upper_bound] at this α, n *)
}

val optimum_cost : alpha:Nf_util.Rat.t -> int -> Nf_util.Rat.t
(** Exact-rational [min(star, clique)] social cost (Lemma 4/5) under
    the BCG's cost model. *)

val default_init_p : int -> float
(** The default G(n,p) density, [(ln n + 1) / n] — just above the
    connectivity threshold. *)

val run_trial :
  ?game:string ->
  n:int ->
  alpha:Nf_util.Rat.t ->
  max_evals:int ->
  init_p:float option ->
  seed:int ->
  int ->
  trial
(** One seeded trial of the registered game [?game] (default ["bcg"]),
    stopped after [max_evals] pair-slot evaluations; the last argument
    is the trial index.  Exposed for tests; runs through the calling
    domain's kernel workspace.
    @raise Invalid_argument as {!run} does for the game. *)

(** {2 The walk's exact pruning rules}

    Both take the workspace with the deleted edge already toggled out
    and distance rows ({!Nf_graph.Kernel.distance_rows}) exact on the
    graph [G] before the deletion; exposed for tests. *)

val deletion_keeps_row : Nf_graph.Kernel.t -> int -> int -> int -> bool
(** [deletion_keeps_row ws v a b], row [v] exact on [G] and [ws]
    holding [G − ab]: [true] when row [v] is provably still exact, that
    is when [d(v,a) = d(v,b)], or when the farther endpoint [f] keeps a
    neighbour [u] in [G − ab] with [d(v,u) = d(v,f) − 1].  Reads row [v]
    and [f]'s adjacency words only. *)

val deletion_floor : Nf_graph.Kernel.t -> int -> int -> int
(** [deletion_floor ws i j], [ws] holding [G − ij]: a lower bound, at
    least 1, on [D_i(G − ij) − D_i(G)] from adjacency words alone — 2
    when [i] and [j] share no neighbour, else 1, plus one for each
    [w ∈ N(j) ∖ N[i]] with no neighbour shared with [i] in [G − ij]. *)

val run :
  ?pool:Nf_util.Pool.t ->
  ?game:string ->
  ?init_p:float ->
  ?max_evals_factor:int ->
  n:int ->
  alpha:Nf_util.Rat.t ->
  trials:int ->
  seed:int ->
  unit ->
  trial list
(** Pool-dispatched trials, results in trial order.  A trial that has not
    converged after [max_evals_factor × C(n,2)] pair evaluations (default
    factor 60) is reported with [converged = false].  What the default
    covers is measured, not guaranteed: at n = 128, α = 2 and the
    default density, the benchmark's 20 seeded trials all converge
    inside it, while both trials of [mc-poa -n 256 --alpha 8 --trials 2]
    exhaust it (1,958,400 evaluations, after 22,728 and 26,456 moves);
    larger orders and link costs may need a larger factor.

    [?game] (default ["bcg"]) names the registered game the walk
    follows: any game with a pricing, e.g. ["transfers"],
    ["weighted_bcg"], ["adversary"] or ["coalition:k=2"] (the BCG, whose
    trials equal ["bcg"]'s).  Every game runs the one pair-slot walk
    above, so [evals] counts evaluated pair slots for all of them;
    [social_cost] follows the game's cost model and [poa] divides it by
    the game's baseline cost (see {!to_csv}).
    @raise Invalid_argument when [n < 2], [trials < 1], the name is
    unknown, or the game has no pricing (["ucg"], ["coalition:k=3"]). *)

val summarize : n:int -> alpha:Nf_util.Rat.t -> trial list -> summary

val csv_header : string

val to_csv : ?game:Netform.Game.packed -> n:int -> alpha:Nf_util.Rat.t -> trial list -> string
(** Deterministic CSV (header + one row per trial): fixed seed ⇒
    byte-identical across pool widths.  The [opt_cost] column is the
    ratio's denominator — pass as [?game] the instance the trials ran
    (default: the BCG): the exact [min(star, clique)] social cost under
    its cost model, the true optimum for the classic games (Lemma 4/5)
    and only a baseline for the adversary model. *)

val summary_to_string : summary -> string
