(** The line-delimited JSON wire protocol (DESIGN.md §13).

    One request per line, one response line per request, in request
    order.  Exact rationals travel as {!Nf_util.Rat.to_string} text
    (["3/2"]) and are parsed with {!Nf_util.Rat.of_string} — never
    through a float, so α survives the wire bit-for-bit; a value it
    refuses (a component of magnitude [2^31] or more included) is an
    error response carrying its message. *)

type request =
  | Stable_at of { game : string option; alpha : Nf_util.Rat.t }
      (** [game = None] means the store's {!Service.default_game}. *)
  | Entry of { graph6 : string }
  | Figure_points of { grid : Nf_util.Rat.t list option }
      (** [None]: the default paper grid — the cacheable key. *)
  | Export
  | Stats
  | Health
  | Shutdown

val op_name : request -> string
val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val request_of_line : string -> (request, string) result
(** Parse one wire line (JSON parse + shape check). *)

val error_response : string -> Json.t
(** [{"ok":false,"error":msg}]. *)

val ok_response : (string * Json.t) list -> Json.t
(** [{"ok":true, ...fields}]. *)

val response_ok : Json.t -> bool
val response_error : Json.t -> string
