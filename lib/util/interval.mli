(** Intervals over the extended rational line.

    Stability regions in the connection games are intervals of link costs
    with rational endpoints that may be open or closed on either side — the
    BCG pairwise-stability region of a graph is [(α_min, α_max]] with
    [α_max] possibly [+∞].  Unions of such intervals arise as the exact set
    of link costs for which a graph is a UCG Nash equilibrium. *)

type endpoint =
  | Neg_inf
  | Finite of Rat.t
  | Pos_inf

type t
(** A possibly-empty interval. *)

val empty : t
val full : t

val make : lo:endpoint -> lo_closed:bool -> hi:endpoint -> hi_closed:bool -> t
(** [make ~lo ~lo_closed ~hi ~hi_closed] normalizes to {!empty} when the
    bounds describe no point.  Infinite endpoints are always treated as
    open. *)

val closed : Rat.t -> Rat.t -> t
(** [closed a b] is [[a, b]]. *)

val open_closed : Rat.t -> endpoint -> t
(** [open_closed a hi] is [(a, hi]] (or [(a, hi)] when [hi] is infinite). *)

val point : Rat.t -> t
val is_empty : t -> bool
val mem : Rat.t -> t -> bool
val bounds : t -> (endpoint * bool * endpoint * bool) option
(** [bounds i] is [Some (lo, lo_closed, hi, hi_closed)] unless [i] is
    empty. *)

val inter : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is [true] when every point of [a] lies in [b]. *)

val compare_endpoint : endpoint -> endpoint -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Normalized finite unions of disjoint intervals, kept sorted. *)
module Union : sig
  type interval := t
  type t

  val empty : t
  val of_list : interval list -> t
  (** Sorts, merges overlapping or touching intervals, drops empties. *)

  val to_list : t -> interval list
  val is_empty : t -> bool
  val mem : Rat.t -> t -> bool

  val add : interval -> t -> t
  val union : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
