(** A reusable fixed-size pool of OCaml 5 domains for shared-nothing
    data parallelism.

    The sweep workloads (exhaustive annotation of every isomorphism class,
    canonical-form computation during enumeration) are embarrassingly
    parallel: many independent pure calls over an indexed collection.  The
    pool keeps [jobs - 1] worker domains alive across calls — spawning a
    domain costs far more than a typical work item — and distributes each
    batch in contiguous chunks claimed from a shared atomic cursor, so load
    balances even when item costs are skewed.

    {2 Semantics}

    - {b Deterministic results.}  [parallel_map f l] returns exactly
      [List.map f l]: slot [i] of the output is [f] applied to element [i]
      of the input, whatever the execution interleaving.  Side effects of
      [f] may of course interleave arbitrarily; workloads fed to the pool
      must be shared-nothing (or synchronize internally).
    - {b Sequential degradation.}  With [jobs = 1] no domains are spawned
      and every call runs the plain sequential path in the calling domain,
      left to right — byte-identical behavior to the pre-pool code.
    - {b Exception propagation.}  If [f] raises, the first exception (with
      its backtrace) is re-raised in the caller once the batch has drained;
      remaining unstarted chunks are skipped.  The pool survives and can be
      reused.
    - {b Reentrancy.}  A nested call from inside a work item (or a
      concurrent call from another domain while a batch is in flight) falls
      back to the sequential path instead of deadlocking.
    - {b Long-lived workers and domain-local state.}  Worker domains
      persist across batches, so [Domain.DLS]-cached resources — in
      particular the per-domain {!Nf_graph.Kernel} workspace obtained via
      [Kernel.with_ws] — are allocated once per worker and reused by every
      chunk that worker ever claims.  Work items should borrow such state
      through its scoped accessor rather than capture it in the closure:
      a workspace created in the submitting domain must never travel into
      a work item. *)

type t
(** A pool handle.  Values of type [t] may be shared between domains. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs = 1] spawns
    none).
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** Parallel width of the pool, including the calling domain. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Subsequent calls through the
    pool run sequentially.  Idempotent. *)

val default_jobs : unit -> int
(** The width used for the implicit default pool: the [NETFORM_JOBS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val default : unit -> t
(** The process-wide default pool, created on first use with
    {!default_jobs} width and shut down automatically at exit.  Library
    entry points ({!Nf_enum.Unlabeled}, [Nf_analysis.Source], the
    experiment sweeps) all route through this pool, so [NETFORM_JOBS=1]
    forces the whole library onto the sequential path. *)

val set_default_jobs : int -> unit
(** Replace the default pool with a fresh one of the given width (the old
    one is shut down).  Intended for tests that must exercise both the
    sequential and the parallel paths regardless of the environment.
    @raise Invalid_argument when [jobs < 1]. *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f l] is [List.map f l] evaluated across the pool
    ({!default} when [?pool] is omitted), results in input order. *)

val parallel_map_array : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array f a] is [Array.map f a] evaluated across the
    pool, results in input order. *)

