(** Aligned plain-text tables for experiment output. *)

type t

val create : string list -> t
(** [create headers] is an empty table with the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded; longer rows are truncated. *)

val render : t -> string
(** Monospace rendering with a header separator, columns padded to the
    widest cell. *)

val print : t -> unit
(** [render] followed by a newline on stdout. *)
