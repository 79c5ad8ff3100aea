(** Stability against coalitions of bounded size — the parameterized
    ["coalition:k=<n>"] family (schema tag 5).

    A coalition of 2 ≤ |S| ≤ k players deviates by forming every absent
    link inside S; any single player may unilaterally sever one incident
    link.  A deviation blocks the graph at link cost [α] when every
    member weakly gains and some member strictly gains, so each coalition
    contributes an exact rational threshold [θ_S = min Δ_v/a_v] and the
    stable set is a single interval accumulated by the BCG's lo/tied/hi
    scan (wrapped as a one-interval union so the whole family shares the
    [Union] region shape).  The 2-coalitions and the deletions are
    exactly the BCG's pairs, so the workspace path is the BCG's
    orbit-quotiented scan intersected with the fold over coalitions of
    size 3..k.

    The two small instances collapse onto the classic games, and the
    differential suites pin both parities:
    - [k = 1]: no consented additions exist, so stability is the UCG
      Nash region — the instance delegates to {!Ucg} wholesale
      (annotator, cost model, [alpha_of_link_cost]).
    - [k = 2]: coalitions are exactly the absent pairs and the region is
      {!Bcg.stable_alpha_set}; its dynamics are {!Bcg.improving_moves}.

    Coalition enumeration is [C(n, ≤k)] per graph — intended for the
    orders the empirical study enumerates, like the UCG's orientation
    search. *)

val family_name : string
(** ["coalition"]. *)

val stable_alpha_set_ws :
  k:int -> Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** The k ≥ 2 interval on a borrowed workspace (exposed unwrapped for the
    parity tests): {!Bcg.stable_alpha_set_sym_ws} under the given
    automorphism subgroup, intersected with the lo/tied fold over every
    coalition of size 3..k. *)

val make : k:int -> Nf_util.Interval.Union.t Game.t
(** The instance for one coalition bound.  [k] must lie in 1..8;
    @raise Invalid_argument otherwise. *)
