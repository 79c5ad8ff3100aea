(** Large-n Monte-Carlo price-of-anarchy estimation for the BCG.

    The exhaustive annotators stop where enumeration stops; this module
    samples the large-n regime the paper's asymptotic claims live in:
    seeded random initial graphs (G(n,p), p ≈ (ln n + 1)/n by default), a
    randomized first-improvement better-response walk over the C(n,2)
    pair slots executed entirely inside a kernel workspace, and the
    exact-rational social cost of the converged pairwise-stable states
    against the star/clique closed-form optimum, reported alongside
    [Theory.poa_upper_bound].

    Improving-move semantics are predicate-for-predicate those of [Bcg]
    (bilateral addition consent, unilateral deletion, the same integer
    cross-multiplication against α), so a converged trial satisfies
    [Bcg.is_pairwise_stable] by construction — and the test suite pins
    that differentially.

    Determinism: one base seed derives an independent PRNG per trial and
    [Pool.parallel_map] preserves input order, so runs are byte-identical
    whatever the pool width. *)

type trial = {
  index : int;  (** trial number within the run *)
  seed : int;  (** derived per-trial PRNG seed *)
  init_edges : int;
  moves : int;  (** improving moves applied *)
  evals : int;  (** pair-slots evaluated (the convergence-time measure) *)
  converged : bool;  (** reached a pairwise-stable state within the budget *)
  final_edges : int;
  diameter : int;  (** of the final graph; [-1] when disconnected *)
  social_cost : Nf_util.Rat.t option;  (** exact [2αm + W]; [None] if disconnected *)
  poa : Nf_util.Rat.t option;  (** social cost / closed-form optimum *)
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
  n:int ->
  alpha:Nf_util.Rat.t ->
  max_evals:int ->
  init_p:float option ->
  seed:int ->
  int ->
  trial
(** One seeded trial (the last argument is the trial index).  Exposed for
    tests; runs through the calling domain's kernel workspace. *)

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
    factor 60 — enough for n ≤ 256 at the default density; larger orders
    may need more) is reported with [converged = false].

    [?game] selects the registered game the walk follows.  Omitted or
    ["bcg"], trials run the specialized kernel walk above — byte-identical
    to the pre-parameter behaviour.  Any other registered name with a
    move generator (e.g. ["coalition:k=2"], ["adversary"]) runs the
    registry-generic walk: the same connected G(n,p) start, then
    [Game_dynamics.run] under the game's own move generator, with
    [moves] and [evals] both counting applied steps and [poa] divided by
    the game's baseline cost (below).  That step is graph-level, so keep
    [n] moderate there.
    @raise Invalid_argument when [n < 2], [trials < 1], the name is
    unknown, or the game has no improving-move generator. *)

val summarize : n:int -> alpha:Nf_util.Rat.t -> trial list -> summary

val csv_header : string

val to_csv : ?game:Netform.Game.packed -> n:int -> alpha:Nf_util.Rat.t -> trial list -> string
(** Deterministic CSV (header + one row per trial): fixed seed ⇒
    byte-identical across pool widths.  The [opt_cost] column is the
    ratio's denominator — the BCG closed form by default, the game's
    baseline cost when [?game] is the instance the trials ran: the
    exact [min(star, clique)] social cost under its cost model, the true
    optimum for the classic games (Lemma 4/5) and only a baseline for
    the adversary model. *)

val summary_to_string : summary -> string
