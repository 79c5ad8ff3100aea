(** Minimal JSON values for the nf_serve wire protocol.

    No external JSON dependency is available, and the protocol needs
    only a small deterministic subset.  {!to_string} emits a canonical
    single-line form — object fields in the order given, no
    insignificant whitespace — so a response's bytes are a pure function
    of the value.  {!of_string} accepts standard JSON (escapes, floats,
    [\uXXXX] with surrogate pairs) so foreign clients are not rejected
    on cosmetic grounds. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Slices of slices  (** renders as the [List] of the [Str]s of {!slice_strings} *)

and slices = {
  slab : Bytes.t;  (** read-only; string [i] is bytes [i*width .. (i+1)*width - 1] *)
  width : int;
  count : int;  (** how many indices [iter] yields *)
  iter : (int -> unit) -> unit;  (** calls its argument on each index, in list order *)
}

exception Parse_error of string

val to_string : t -> string
(** Canonical single-line rendering (never contains a newline — the
    framing invariant of the line-delimited protocol). *)

val to_line : t -> string
(** {!to_string} and the line terminator, in one buffer. *)

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing bytes. *)

val member : string -> t -> t option
(** Field lookup; [None] on a non-object or a missing field. *)

val to_str : t -> string option
val slice_strings : slices -> string list
val to_list : t -> t list option
