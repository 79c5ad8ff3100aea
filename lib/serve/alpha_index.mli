(** α-interval index over a store's stability regions: a dictionary
    from each distinct region to the ascending ids of the records that
    carry it.  A query tests each distinct region with
    {!Nf_util.Interval.mem} and k-way merges the matching id arrays —
    disjoint, since each record lies in one region — so answers are
    ascending ids, identical to a linear [Interval.mem] filter over the
    records, endpoints included.  Immutable after {!freeze} and safe to
    query from any number of domains concurrently. *)

type t
type builder

val builder : unit -> builder

val add : builder -> Nf_util.Interval.t list -> int
(** [add b pieces] gives the next record id (0, 1, …) the region
    [pieces]: a singleton for an interval region, [Union.to_list] for a
    union region.  Empty pieces never match; overlapping pieces are
    tolerated.  Returns the region's code: its number among the
    distinct regions in first-seen order, which {!region} reads back. *)

val freeze : builder -> t

val stab : t -> alpha:Nf_util.Rat.t -> int * ((int -> unit) -> unit)
(** [(count, iter)]: how many records' regions contain [alpha], and an
    iterator over their ids in ascending order. *)

val stable_at : t -> alpha:Nf_util.Rat.t -> int list
(** Ascending ids of the records whose region contains [alpha]. *)

val endpoints : t -> Nf_util.Rat.t array
(** The sorted distinct finite endpoints of the regions. *)

val regions : t -> int
(** Distinct regions. *)

val region : t -> int -> Nf_util.Interval.t list
(** [region t code]: the pieces of the region {!add} returned [code]
    for. *)

val ids : t -> int
(** Ids held: those of regions containing some point. *)
