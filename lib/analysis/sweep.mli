(** Link-cost grids for the empirical study.

    All grid points are dyadic rationals so float and exact-rational views
    of the same α agree bit-for-bit. *)

val dyadic : float -> Nf_util.Rat.t
(** Exact conversion of a dyadic float (denominator ≤ 4096).
    @raise Invalid_argument otherwise. *)

val paper_grid : Nf_util.Rat.t list
(** The α grid used for Figures 2–3: roughly log-spaced from 1/4 to 64. *)

val log_floats : lo:float -> hi:float -> points:int -> float list
(** Log-spaced floats, for reference curves. *)
