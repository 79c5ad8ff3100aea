(** Integers extended with a positive infinity.

    Shortest-path distances in the connection games are hop counts, and the
    paper sets [d(i,j) = ∞] when no path exists.  Carrying an explicit
    infinity through all distance arithmetic keeps disconnection handling
    exact instead of relying on sentinel values. *)

type t =
  | Fin of int  (** a finite value *)
  | Inf  (** positive infinity *)

val zero : t
val one : t
val of_int : int -> t

val to_int : t -> int
(** [to_int v] is the finite payload of [v].
    @raise Invalid_argument on [Inf]. *)

val is_finite : t -> bool

val add : t -> t -> t
(** Saturating addition: anything plus [Inf] is [Inf]. *)

val sub : t -> t -> t
(** [sub a b] is [a - b] for finite values; [Inf - Fin _] is [Inf].
    @raise Invalid_argument when [b] is [Inf] (the games never subtract an
    infinite cost). *)

val mul_int : int -> t -> t
(** [mul_int k v] multiplies by a non-negative integer; [mul_int 0 Inf] is
    [zero], matching the convention that an empty sum is zero. *)

val sum : t list -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
