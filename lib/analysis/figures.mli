(** The paper's Figure 2 (average price of anarchy vs link cost) and
    Figure 3 (average number of links vs link cost).

    The paper plots the UCG at [log α] and the BCG at [log 2α], i.e. it
    aligns the two games at equal {e total} cost per link.  We reproduce
    that alignment: each grid point [c] is the total link cost; the UCG is
    evaluated at [α = c] and the BCG at [α = c/2]. *)

type point = {
  total_link_cost : Nf_util.Rat.t;  (** the grid value [c] *)
  ucg : Netform.Poa.summary;  (** over all UCG Nash graphs at [α = c] *)
  bcg : Netform.Poa.summary;  (** over all BCG stable graphs at [α = c/2] *)
}

val sweep_source : ?grid:Nf_util.Rat.t list -> Source.t -> point list
(** The sweep over [grid] (default {!Sweep.paper_grid}) on a source
    that carries both games: at grid value [c] the UCG stable set at
    [α = c] and the BCG one at [α = c/2].
    @raise Invalid_argument when the source lacks either game. *)

val sweep : n:int -> ?grid:Nf_util.Rat.t list -> unit -> point list
(** {!sweep_source} over the fresh {!Source.classic} atlas on [n]
    players: after {!Source.clear_cache}, a cold computation. *)

val figure2_table : point list -> string
(** α, equilibrium counts, and average PoA per game, as an aligned
    table. *)

val figure3_table : point list -> string
val figure2_plot : point list -> string
(** ASCII rendering: average PoA vs [log₂] of the total link cost. *)

val figure3_plot : point list -> string

val to_csv : point list -> string
(** Machine-readable dump of the full sweep. *)

(** {2 Single-game sweeps}

    The same sweep for {e any} registered game ([netform sweep --game
    <name>]): the game's own α convention ({!Netform.Game.S.alpha_of_link_cost})
    and social-cost model are applied at each grid value. *)

type game_point = {
  game : string;  (** the game's registry name *)
  link_cost : Nf_util.Rat.t;  (** the grid value [c] (total cost per link) *)
  alpha : Nf_util.Rat.t;  (** the game's per-player α at [c] *)
  summary : Netform.Poa.summary;  (** over the game's equilibria at [α] *)
}

val sweep_game :
  Netform.Game.packed -> ?grid:Nf_util.Rat.t list -> Source.t -> game_point list
(** One game's sweep over a source that carries it.
    @raise Invalid_argument when it does not. *)

val game_table : game_point list -> string
val game_plot : game_point list -> string
val game_csv : game_point list -> string
(** Header [game,total_link_cost,alpha,count,avg_poa,worst_poa,best_poa,avg_links]. *)

(** {2 The figure of a source} *)

type figure =
  | Pair of point list  (** the paper's Figure 2/3 pair *)
  | Single of game_point list  (** one game's curves *)

val figure : ?game:string -> ?grid:Nf_util.Rat.t list -> Source.t -> figure
(** [game]'s curves over the source, or without [game] the source's own
    figure: the {!Pair} for a classic BCG+UCG atlas, its one game's
    curves otherwise.
    @raise Invalid_argument on an unknown game or one the source does
    not carry. *)

val render : figure -> string
(** The tables and plots, one blank line between each. *)

val csv : figure -> string
(** {!to_csv} or {!game_csv}. *)
