(** Player and social costs of the connection games (paper §2).

    A player's cost is [α · (links provisioned) + Σ_j d(i,j)] (eq. 1), with
    [d = ∞] when disconnected.  Link cost [α] enters two ways: exactly, as a
    rational, in all stability analysis; and as a float in reported cost and
    price-of-anarchy numbers.

    Social cost differs between the two games (eq. 4): in the BCG each edge
    is paid at both endpoints ([2α|A|]); in the UCG it is bought once
    ([α|A|]). *)

type game =
  | Bcg  (** bilateral: consent needed, cost shared at both ends *)
  | Ucg  (** unilateral: either endpoint builds, builder pays *)
  | Adversary
      (** bilateral, plus each player pays the expected number of players
          a uniformly random single-edge failure cuts off from it
          (Kliemann's adversary model) *)

val distance_cost : Nf_graph.Graph.t -> int -> Nf_util.Ext_int.t
(** [Σ_j d(i,j)] — the distance part of player [i]'s cost. *)

val total_distance_cost : Nf_graph.Graph.t -> Nf_util.Ext_int.t
(** Sum over ordered pairs (the Wiener term of eq. 4). *)

val player_cost : alpha:float -> Nf_graph.Graph.t -> int -> float
(** BCG player cost given that strategies match the graph: [i] provisions
    exactly its incident edges, so the link term is [α · degree i].
    [infinity] when the graph is disconnected. *)

val expected_separation_cost : Nf_graph.Graph.t -> float
(** Σ over bridges of [2·s·(C−s)], divided by the edge count (0 for an
    edgeless graph) — the social separation term of the adversary model. *)

val social_cost : game -> alpha:float -> Nf_graph.Graph.t -> float
(** Eq. (4) for the BCG, its one-sided analogue for the UCG, and the BCG
    form plus {!expected_separation_cost} for the adversary model. *)

val social_cost_lower_bound : alpha:float -> int -> int -> float
(** Eq. (5): [2n(n-1) + 2(α-1)m] — a lower bound on BCG social cost for any
    graph with [n] vertices and [m] edges; met exactly by diameter-≤2
    graphs. *)

val is_social_cost_bound_tight : alpha:float -> Nf_graph.Graph.t -> bool
(** Whether the graph attains eq. (5) — i.e. has diameter ≤ 2 (and is
    connected). *)
