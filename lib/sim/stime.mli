(** Simulated time.

    Time in the simulator is an integer count of nanoseconds.  All
    scheduling, CPU accounting and device service times are expressed as
    values of {!t}. *)

type t = private int
(** An instant or duration, in nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us u] is [u] microseconds. *)

val ms : int -> t
(** [ms m] is [m] milliseconds. *)

val s : int -> t
(** [s x] is [x] seconds. *)

val of_us_f : float -> t
(** [of_us_f u] converts a fractional microsecond duration, rounding to the
    nearest nanosecond. *)

val of_s_f : float -> t
(** [of_s_f x] converts a fractional second duration. *)

val scaled : int -> mul:float -> div:int -> t
(** [scaled n ~mul ~div] is [n * mul / div] nanoseconds, rounded as
    {!of_us_f} rounds.  The per-packet cost formulas (per-byte costs,
    wire serialization) use it so that no computed float crosses a
    call: where cross-module inlining is off (the dev profile) a float
    argument is boxed at every call. *)

val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float
val to_s : t -> float

val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> int -> t
(** [mul t k] is [t] repeated [k] times. *)

val scale : t -> float -> t
(** [scale t f] is [t] scaled by factor [f], rounded to nanoseconds. *)

val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val is_positive : t -> bool

val pp : Format.formatter -> t -> unit
(** Pretty-print with an auto-selected unit (ns, us, ms or s). *)

val to_string : t -> string
