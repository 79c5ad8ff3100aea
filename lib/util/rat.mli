(** Exact rational arithmetic on machine integers.

    Every stability threshold in the connection games is a ratio of two
    small integers (differences of hop-count sums divided by an edge-count
    difference), so normalized [int]-backed rationals are exact for the
    whole analysis.  Denominators are kept strictly positive. *)

type t = private {
  num : int;  (** numerator *)
  den : int;  (** denominator, always > 0 *)
}

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero when [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t
val num : t -> int
val den : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_integer : t -> bool
val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val component_limit : int
(** [2^31]: {!of_string} refuses a numerator or denominator of this
    magnitude or more. *)

val of_string : string -> t
(** Inverse of {!to_string} below the input bound: parses ["P"] and
    ["P/Q"] with [P], [Q] strict decimal integers (optional leading [-],
    digits only — no hex, no [_] separators, no floats) of magnitude
    below [2^31].  [of_string (to_string r) = r] for every [t] whose
    components lie below the bound; non-normalized inputs such as ["2/4"]
    or ["1/-2"] are accepted and normalized by {!make}.  The bound keeps
    every product of two parsed components inside 63 bits, so comparing
    a parsed value with a rational of components below the bound cannot
    wrap around.
    @raise Invalid_argument with the message
      [Rat.of_string: "S" has a numerator or denominator of magnitude >= 2^31]
      when a component reaches the bound, and
      [Rat.of_string: "S" is not an integer or P/Q rational] on anything
      else (including ["1/0"]). *)

val of_string_opt : string -> t option
(** Like {!of_string}, [None] instead of raising. *)
