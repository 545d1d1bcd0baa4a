(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic element of a simulation draws from an explicit [t] so
    that runs are exactly reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  [n] must be positive. *)

val float : t -> float -> float
(** [float t b] is uniform in [\[0, b)]. *)

val split : t -> t
(** An independent generator derived from [t]'s stream.  The child
    depends on the parent's current position — deterministic only if
    every preceding draw is. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] is worker stream [index] of the run seeded
    [seed]: a pure function of its two arguments, independent of any
    generator's mutable position.  Parallel soaks hand stream [i] to
    domain [i] so per-domain randomness is reproducible regardless of
    spawn order.  Distinct indices yield distinct generators.
    @raise Invalid_argument if [index] is negative. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto-distributed sample on [\[scale, +inf)] — the classic
    heavy-tailed flow-size distribution.  [shape] <= 1 has infinite
    mean; web-flow fits are usually 1.1–1.5. *)
