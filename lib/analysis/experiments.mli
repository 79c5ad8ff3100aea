(** The reproduction suite indexed in DESIGN.md: one experiment per
    table/figure/claim in the paper (E1–E13) plus the extension studies
    (E14–E23), registered in one {!table}.  Each produces a
    self-contained text report.

    An experiment runs against a {!ctx}: the annotated classes of a
    BCG+UCG atlas ({!Source.t}, fresh or stored) and its order [n] for
    the exhaustive studies.  Every entry that reads BCG or UCG regions at
    [n] reads them off that source; the Figure 2/3 sweep points are
    derived from it lazily, so only the experiments that read them (E1,
    E2) pay for them, and once however many do.  Defaults keep a full
    run to well under a minute at n = 6; the exhaustive studies cost
    exponentially more as [n] grows toward the paper's ten agents. *)

type result = {
  id : string;  (** "E1" ... "E23" *)
  title : string;
  body : string;  (** rendered tables/plots *)
  ok : bool;  (** all programmatic assertions in the experiment held *)
}

type ctx = {
  n : int;
      (** the source's order: players for the exhaustive studies (E8 and
          E18 use at least 7, E9's conjecture check at most 6) *)
  source : Source.t;  (** the BCG+UCG atlas at [n] *)
  points : Figures.point list Lazy.t;  (** {!Figures.sweep_source} of [source] *)
}

val context : Source.t -> ctx
(** [context source]: nothing runs until an experiment reads it.
    @raise Invalid_argument when the source does not carry both the BCG
    and the UCG regions. *)

type entry = {
  id : string;
  run : ctx -> result;  (** the result carries this entry's [id] *)
}

val table : entry list
(** Every experiment, in id order: E1 … E18, E20 … E23.  (E19 sampled
    the n = 10 stable set by improving paths; the exact n = 10 atlas,
    [netform store build -n 10], replaced it.) *)

val find : entry list -> string -> entry option
(** The entry with this id, compared case-insensitively. *)

val game_entry : string -> entry
(** Single-game exhaustive sweep ([netform experiments --game]) for any
    registered game, id ["G:"] ^ game: the {!Figures.sweep_game} table
    and plot at the context's [n] (off the context's source when it
    carries the game), with a sanity check that every
    observed PoA ratio is ≥ 1.
    @raise Invalid_argument on an unknown game name. *)

val render : result -> string
val render_all : result list -> string
