(** α-interval index over a store's stability regions.

    Turns "all records stable at link cost α" from an O(records) filter
    into a binary search over the sorted distinct region endpoints plus
    an O(log) segment-tree stabbing query, whose already-ascending node
    arrays are k-way merged without a sort — with the open/closed
    endpoint semantics of {!Nf_util.Interval.mem} preserved exactly,
    including queries at the endpoints themselves (each endpoint is its
    own elementary position).  Answers are ascending record ids,
    identical to a linear [Interval.mem] filter over the records.  The structure is
    immutable after {!build} and safe to query from any number of
    domains concurrently. *)

type t

val build : count:int -> pieces:(int -> Nf_util.Interval.t list) -> t
(** [build ~count ~pieces] indexes records [0 .. count-1]; [pieces i]
    lists the stability intervals of record [i] (a singleton for an
    interval region, [Union.to_list] for a union region; empty intervals
    are ignored, overlapping pieces are tolerated).  [pieces] is called
    once per record at build time. *)

val stable_at : t -> alpha:Nf_util.Rat.t -> int list
(** Ascending ids of the records whose region contains [alpha]. *)

val endpoints : t -> Nf_util.Rat.t array
(** The sorted distinct finite endpoints (exposed for stats and the
    boundary-differential tests). *)

val records : t -> int
