(** The [netform serve] daemon: a select-loop server over one
    {!Service}.

    One event loop owns every socket; each round's complete request
    lines are evaluated as one batch on the {!Nf_util.Pool} domains, so
    concurrent clients' requests run concurrently while every
    connection's responses keep its own request order.  SIGINT/SIGTERM
    (or a [shutdown] request) drain pending responses, close all
    sockets, remove the unix-socket path and restore the previous
    signal dispositions before {!serve} returns. *)

type addr = Unix_socket of string | Tcp of int  (** TCP binds 127.0.0.1 only. *)

val respond : Service.t -> Protocol.request -> Json.t
(** Evaluate one request to its response — the daemon's evaluator, and
    the one an in-process [netform query] answers with.  Errors come
    back as [{"ok":false,...}] responses ([Invalid_argument]/[Failure]
    text verbatim, [Layout.Corrupt] as ["store corrupt: ..."]), never
    exceptions. *)

val handle_line : Service.t -> string -> string * [ `Continue | `Shutdown ]
(** Parse one wire line and {!respond} to it: one response line
    (newline included), counted in the service's request total. *)

val serve : ?report:(string -> unit) -> addr:addr -> path:string -> unit -> unit
(** Open the store at [path] (file or shard directory), bind [addr], and
    serve until a shutdown request or signal; returns after a clean
    drain.  [report] receives a start line and a shutdown line.
    @raise Unix.Unix_error when the address cannot be bound. *)
