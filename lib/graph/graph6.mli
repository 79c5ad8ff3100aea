(** The graph6 text format (McKay), for graphs on up to 258047 vertices.

    graph6 is the lingua franca of graph generators (nauty/geng), so
    supporting it lets the enumeration and equilibrium pipelines exchange
    graphs with external tooling and gives tests a compact fixture
    format.  Orders up to 62 use the classic one-byte header; 63..258047
    the standard ['~'] + 3-byte header. *)

val max_order : int
(** Largest encodable order (258047, the 3-byte header ceiling). *)

val encoded_length : int -> int
(** The byte length of the graph6 of every order-[n] graph. *)

val encode : Graph.t -> string
(** @raise Invalid_argument when the order exceeds {!max_order}. *)

val decode : string -> Graph.t
(** Strict inverse of {!encode}: the header must be a canonical order in
    [0..258047] (one-byte up to 62, ['~'] + 3 bytes above), the body
    exactly the right length with every byte in the printable 63..126
    range, and the final byte's padding bits zero.  Consequently [decode]
    accepts exactly the image of {!encode}, and [encode (decode s) = s]
    whenever [decode s] succeeds — corrupted or truncated strings never
    decode silently.
    @raise Invalid_argument on malformed input. *)
