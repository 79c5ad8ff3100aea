(** The per-experiment runners indexed in DESIGN.md (E1–E23): one per
    table/figure/claim in the paper (E1–E13) plus the extension studies
    (E14–E23).  Each produces a self-contained text report; {!run_all}
    concatenates every experiment at the given size.

    Defaults keep a full run to a couple of minutes; the [n] parameters
    raise fidelity toward the paper's ten-agent study at exponential
    cost. *)

type result = {
  id : string;  (** "E1" ... "E23" *)
  title : string;
  body : string;  (** rendered tables/plots *)
  ok : bool;  (** all programmatic assertions in the experiment held *)
}

val e1_e2_figures : ?n:int -> unit -> result * result
(** Figures 2 and 3 (shared sweep; default n = 6). *)

val e3_figure1_gallery : unit -> result
val e4_lemma4 : ?n:int -> unit -> result
val e5_lemma5 : ?n:int -> unit -> result
val e6_lemma6_cycles : ?max_n:int -> unit -> result
val e7_prop3_moore : unit -> result
val e8_prop4_upper_bound : ?n:int -> unit -> result
val e9_prop5_trees : ?max_n:int -> ?conjecture_n:int -> unit -> result
val e10_footnote5_cycles : unit -> result
val e11_footnote7_petersen : unit -> result
val e12_desargues : unit -> result
val e13_eq5_bound : ?n:int -> unit -> result

val e14_transfers : ?n:int -> unit -> result
(** Ablation for the §6 outlook: pairwise stability {e with transfers}
    (joint-surplus link decisions, {!Netform.Transfers}) against plain
    pairwise stability — how side payments shrink the stable set and its
    price of anarchy. *)

val e15_dynamics_and_prop2 : ?meta_n:int -> unit -> result
(** Jackson–Watts closed-cycle census of the improving-move digraph (the
    BCG dynamics always converge) and constructive Proposition 2: every
    link convex graph verified pairwise stable at its witness link
    cost. *)

val e16_shape_census : ?n:int -> unit -> result
(** §5's structural reading of Figures 2–3: a census of equilibrium
    shapes per link cost, with the "only trees for α > n²" parenthetical
    asserted. *)

val e17_distance_utilities : unit -> result
(** Robustness ablation: exact stability windows when the paper's linear
    distance cost is replaced by quadratic, hop-capped, or pure
    connectivity utilities ({!Netform.Distance_utility}). *)

val e18_bcg_scaling : ?max_n:int -> unit -> result
(** Exhaustive BCG sweeps at n = 5 .. [max_n] (default 7; n = 8 takes a
    few extra seconds): how the average price of anarchy scales toward
    the paper's ten-agent study, with price-of-stability-1 asserted. *)

val e19_sampled_n10 : ?n:int -> ?attempts:int -> ?seed:int -> unit -> result
(** The paper's ten-agent study, approximated by sampling: improving-path
    dynamics from random connected seeds, deduplicated up to isomorphism,
    summarized per link cost.  Deterministic given [seed]. *)

val e20_proper_equilibrium : unit -> result
(** Definition 5 numerically on the 4-player normal form: stable profiles
    (including the Prop-2 witness for a link convex graph) are proper
    limits, a non-Nash profile collapses, and a Nash-but-not-pairwise
    profile survives — the §3 motivation for pairwise notions. *)

val e21_stochastic_stability : ?n:int -> unit -> result
(** Perturbed-dynamics selection among stable networks (the stochastic
    stability the paper cites from Tercieux & Vannetelbosch): resistances
    + minimum arborescences over all labeled stable states.  Asserts the
    observed characterization: the stochastically stable states are
    exactly the connected pairwise stable states. *)

val e22_large_n_monte_carlo : ?n:int -> ?trials:int -> unit -> result
(** The large-n regime through the multi-word kernel: Monte-Carlo PoA
    estimates ({!Nf_dynamics.Mc_poa}) at n/2 and n (default n = 128)
    reported against Proposition 4's [min(√α, n/√α)] curve, with every
    converged sample re-verified by [Bcg.is_pairwise_stable]; plus the
    exact stability windows of the n-cycle (Lemma 6) and a 200-leaf star,
    computed directly at orders enumeration never reaches. *)

val e23_parameterized_regimes : ?n:int -> unit -> result
(** Figure 2/3-style sweeps through the parameterized families (default
    n = 5): the adversary game against the enumerated true optimum
    (ratios ≥ 1 asserted — min(star, clique) is not its optimum), and
    the coalition-k ladder with its layering asserted point for point:
    k = 1 counts equal the UCG's, k = 2 counts equal the BCG's, and
    k = 3 only shrinks the set. *)

val game_sweep : game:string -> ?n:int -> unit -> result
(** Single-game exhaustive sweep ([netform experiments --game]) for any
    registered game: the {!Figures.sweep_game} table and plot, with a
    sanity check that every observed PoA ratio is ≥ 1.
    @raise Invalid_argument on an unknown game name. *)

val ids : string list
(** The ids {!run_all} returns, in order (["E1"] … ["E23"]) — known
    without running anything, so a caller can reject an unknown id up
    front. *)

val run_all : ?n:int -> unit -> result list
(** Every experiment with consistent sizes. *)

val render : result -> string
val render_all : result list -> string
