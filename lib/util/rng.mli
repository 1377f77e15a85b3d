(** Deterministic pseudo-random number generation.

    All stochastic inputs in this repository (graph topologies, feature
    vectors, mesh connectivity, …) are drawn from this splitmix64-based
    generator so that every experiment is reproducible bit-for-bit from a
    seed.  The interface deliberately mirrors the small subset of
    [Stdlib.Random] that the workload generators need. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Two generators
    created from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give each workload its own stream without coupling their
    consumption rates. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  The result crosses a
    module boundary boxed; bulk callers use {!fill_float}. *)

val fill_float : t -> float array -> float -> unit
(** [fill_float t a bound] sets [a.(0)], [a.(1)], ... to successive
    [float t bound] draws, in index order, without allocating. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)
