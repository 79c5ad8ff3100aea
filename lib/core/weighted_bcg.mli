(** The bilateral connection game with per-player link-cost multipliers —
    the heterogeneous-cost extension of §5's study (player [i] pays
    [w_i·α] for each of its links, [w_i ≥ 1] an integer), after
    Govindaraj's per-player link-cost variant.

    Every BCG threshold [k] (an integer difference of hop-count sums)
    becomes the exact rational [k / w_i], so each graph still has an
    exact stable interval: [α_min] is the max over missing links of
    [min(b_i/w_i, b_j/w_j)] (closed exactly when every attaining pair
    ties), [α_max] the min over edge endpoints of [l_i/w_i].  With all
    weights equal to 1 every threshold — and therefore every region,
    certificate and improving move — coincides with {!Bcg}'s; the
    differential tests assert the regions are structurally equal.

    The annotation is computed on the {e labeled} graph: unlike the
    uniform games, a per-player weight profile is not isomorphism
    invariant, so regions attach to the chosen representative labeling
    of each class.

    {!make} packages a weight profile as a first-class {!Game.t}; the
    instance registered in {!Game_registry} uses {!default_weight}. *)

val default_weight : int -> int
(** The registered demonstration profile: [1 + (i mod 2)] — players
    alternate between unit and doubled link prices. *)

val stable_alpha_set :
  weight:(int -> int) -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** The exact set of positive link costs at which the graph is pairwise
    stable under the weighted deviation rules.
    @raise Invalid_argument when [weight i < 1] for some player [i]. *)

val stable_alpha_set_ws :
  weight:(int -> int) -> Nf_graph.Kernel.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** {!stable_alpha_set} against a caller-provided kernel workspace (the
    chunked-annotation path): {!Pairwise.stable_interval} at the trivial
    subgroup, since the weights are indexed by player. *)

val make : weight:(int -> int) -> Nf_util.Interval.t Game.t
(** A weight profile as a first-class game: family and name
    ["weighted_bcg"], no parameters, schema tag [3].  The table in
    {!Game_registry} holds the {!default_weight} instance. *)
