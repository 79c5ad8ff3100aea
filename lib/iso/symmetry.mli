(** Automorphism (sub)groups packaged for orbit-quotient annotation.

    Every annotator in the connection games is isomorphism-invariant, so
    toggling one representative edge per automorphism orbit and letting
    the result stand for the whole orbit is exact (DESIGN.md §11).  A
    value of type {!t} is a generator list witnessing a subgroup of
    [Aut(g)] — any subgroup is sound (its orbits refine the true ones),
    which is what makes the cheap detection tier possible.

    Two tiers feed the quotient:
    - {!detect_twins}: O(n²) word compares finding twin vertices (equal
      adjacency rows modulo the pair itself); the per-graph cost is far
      below a single edge toggle, so bulk sweeps always run it.
    - {!detect_full}: the exact group off {!Canon.full}'s
      individualization–refinement search; ~tens of microseconds per
      graph, reserved for one-off calls whose annotation dwarfs it
      (gallery graphs, UCG orientation searches).

    {!iter_pair_reps} is the only place a subgroup turns into the set of
    pairs a scan evaluates.  A trivial subgroup is its all-pairs case,
    so asymmetric graphs run the plain double loop and pay only the
    detection scan. *)

type t
(** A subgroup of the automorphisms of one [n]-vertex graph. *)

val trivial : int -> t
(** The trivial subgroup on [n] vertices ({!is_trivial} holds). *)

val generators : t -> int array list
(** Concrete generators of the witnessed subgroup.  For {!detect_twins}
    values these are materialized on demand (star transpositions linking
    each twin-class member to its class minimum) — the sweep path never
    allocates them. *)

val is_trivial : t -> bool

val twin_partition : t -> (int array * int array) option
(** [Some (classes, second)] when the subgroup came from the twin tier:
    [classes.(v)] is the smallest vertex of [v]'s orbit and [second.(c)]
    the second-smallest member of class [c] ([-1] for singleton classes).
    The generated group is the direct product of the full symmetric
    groups on the classes, so a pair [{i, j}] ([i < j]) is its orbit's
    lexicographically-least representative iff [i = classes.(i)] and
    [j = classes.(j)] (distinct classes) or [j = second.(classes.(i))]
    (same class) — the O(1) test {!iter_pair_reps} applies instead of
    materializing {!edge_orbits}. *)

val detect_twins : Nf_graph.Graph.t -> t
(** The sweep tier: partition vertices into twin classes
    ([N(u) \ {v} = N(v) \ {u}] links [v] to its smallest twin).  Swapping
    twins is always an automorphism, so the witnessed subgroup is the
    product of the symmetric groups on the classes; the result carries
    {!twin_partition} and allocates no generator arrays. *)

val detect_full : Nf_graph.Graph.t -> t
(** The one-off tier: the full automorphism group from {!Canon.full}. *)

type edge_orbits = {
  reps : int array;
      (** ascending triangular pair indices with [orbit_of_pair.(t) = t] *)
  orbit_of_pair : int array;
      (** representative triangular index per pair, as {!Canon.edge_orbits} *)
}

val edge_orbits : t -> edge_orbits
(** The orbit partition of unordered vertex pairs under the subgroup,
    computed once per value and cached (atomically — values are shared
    across annotation domains). *)

val iter_pair_reps : t -> (int -> int -> bool -> unit) -> unit
(** [iter_pair_reps sym f] calls [f i j twin] once per orbit of
    unordered vertex pairs under the subgroup, on the orbit's
    lexicographically least pair [i < j], in lexicographic order — as a
    set, the visited pairs are exactly [(edge_orbits sym).reps].  [twin] is
    [true] exactly on the twin tier's within-class pairs, where the
    subgroup holds the transposition [(i j)]: the two endpoints'
    per-vertex values are then equal and one sweep serves both.  A
    trivial subgroup visits every pair with [twin = false]; the twin
    tier never materializes {!edge_orbits}. *)

val group_elements : cap:int -> t -> int array array
(** Up to [cap] non-identity elements of the generated subgroup, by
    breadth-first closure.  Any prefix of the group is sound for the UCG
    sibling-branch pruning, so hitting the cap degrades speed, never
    correctness.  Empty for a trivial subgroup. *)

val quotient_enabled : unit -> bool
(** [false] when [NETFORM_NO_ORBIT_QUOTIENT] is set (to anything but
    ["0"] or the empty string) or after {!set_quotient_enabled} [false]:
    every auto-detecting annotation entry point then passes the
    trivial subgroup and scans every pair. *)

val set_quotient_enabled : bool -> unit
(** Flip the process-wide opt-out (the CLI's [--no-orbit-quotient]).
    Not synchronized: set it before parallel sweeps start. *)

val self_check : Nf_graph.Graph.t -> t -> unit
(** Fail loudly ([Failure]) unless every generator is an automorphism of
    the graph, the edge orbits partition the C(n,2) pairs without mixing
    edges and non-edges, and every orbit size divides the group order
    reported by the independent {!Canon.automorphism_count} backtracker
    (orbit-stabilizer).  Test-suite armor for the union-find. *)
