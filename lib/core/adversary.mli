(** The adversary connection game: bilateral link formation under a
    uniformly random single-edge attack (Kliemann's adversary model,
    arXiv:1308.1832, specialised to the bridge adversary).

    Player [i]'s cost gains an expected-disconnection term on top of the
    BCG's (eq. 1): [α·deg(i) + Σ_j d(i,j) + S_i/m], where [S_i] sums over
    bridges in [i]'s component the number of players a failure of that
    bridge separates from [i] ({!Nf_graph.Connectivity.separation_sums})
    and [m] is the edge count ([S/m = 0] for the edgeless graph).
    Deviations are the BCG's — bilateral additions, unilateral deletions
    — so the stable region is a single rational interval, computed by
    {!Pairwise.stable_interval} with the BCG's integer thresholds
    replaced by exact fractions over the before/after edge counts.  Registered as
    ["adversary"] (schema tag 4). *)

val stable_alpha_set_sym_ws :
  Nf_graph.Kernel.t -> Nf_iso.Symmetry.t -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** Exact stable region on a borrowed kernel workspace (the production
    annotator path, {!Pairwise.stable_interval}), pricing one
    representative pair per orbit of the given automorphism subgroup:
    distance sums, [m] and separation sums are all
    isomorphism-invariant.  The result is the same for any subgroup of
    [Aut(g)]; [Symmetry.trivial n] prices every pair. *)

val stable_alpha_set : Nf_graph.Graph.t -> Nf_util.Interval.t
(** {!stable_alpha_set_sym_ws} on a scratch workspace at
    {!Game.sweep_symmetry}. *)

val game : Nf_util.Interval.t Game.t
(** The registered instance: family ["adversary"], no parameters,
    schema tag 4, bilateral cost model with the separation term. *)
