(** Generalized distance-based utilities.

    The paper's cost charges raw hop counts ([f(d) = d]); the related work
    it cites (Kannan, Ray & Sarangi) asks how the architecture of stable
    networks changes under other distance-based utility functions.  This
    module re-runs the bilateral stability analysis for any nondecreasing
    integer-valued [f]: player [i]'s cost is [α|s_i| + Σ_j f(d(i,j))].

    All thresholds remain integers, and the game is pairwise like the
    BCG: a profile is one {!Pairwise.pricing} over the kernel's distance
    rows, and its region is {!Pairwise.stable_interval}. *)

type profile = {
  name : string;
  f : int -> int;  (** applied to finite hop counts [d ≥ 0]; must be
                       nondecreasing with [f 0 = 0] *)
}

val linear : profile
(** The paper's [f(d) = d]. *)

val quadratic : profile
(** [f(d) = d²]: long routes hurt disproportionately (latency-sensitive
    traffic). *)

val hop_capped : int -> profile
(** [hop_capped h]: [f(d) = min d h] — beyond [h] hops everything is
    equally bad (TTL-limited flooding). *)

val connectivity : profile
(** [f(d) = 0] for every finite [d]: players only care about being
    connected at all. *)

val stable_alpha_set : profile -> Nf_graph.Graph.t -> Nf_util.Interval.t
(** Exact pairwise-stable region under [f], with the same tie handling as
    {!Bcg.stable_alpha_set}.  For [linear] this equals
    [Bcg.stable_alpha_set] (property-tested). *)

