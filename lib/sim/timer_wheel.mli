(** Hierarchical timer wheel.

    A priority queue over non-negative integer keys (nanosecond deadlines)
    with O(1) [add], O(1) true-removal [cancel] and amortised O(1)
    [pop].  Pops are stable: among equal keys, insertion order wins —
    the wheel fires in exactly the same order as a stable binary heap
    would (the test suite's qcheck oracle).

    Entries live in parallel arrays indexed by entry number, linked by
    ints, and are recycled through a free stack: a steady add/pop cycle
    allocates nothing, and the only pointer stores per entry are writing
    its payload and clearing it.  A {!timer} keeps its payload across a
    pop or cancel, and {!arm} skips storing the payload it already holds,
    so re-arming a timer with the same thunk stores no pointer.

    The wheel's horizon is the key of the last pop.  Looking ahead
    ({!min_key}, {!peek_min}) does not move it, so any key at or after the
    last popped one is accepted. *)

type 'a t

type handle
(** A scheduled entry, usable for cancellation: its index and a
    generation.  Once the entry has fired or been cancelled and is reused,
    the handle names nothing. *)

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills payload slots that hold nothing (free entries, and
    popped or cancelled entries other than timers), so a dropped payload
    is not retained.  A timer's slot keeps its last payload until the
    next {!arm} replaces it. *)

val live : 'a t -> int
(** Number of entries added but not yet popped or cancelled. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Entries the arrays hold, live or free.  Grows by doubling when the
    free stack runs out, and never shrinks. *)

val horizon : 'a t -> int
(** Smallest key currently accepted: the key of the last {!pop}.  Only
    moves forward, and only when an entry is popped. *)

val add : 'a t -> key:int -> 'a -> handle
(** Schedule [v] at [key].  O(1), and allocation-free once the arrays
    have grown to the peak live count.
    @raise Invalid_argument if [key < horizon t]. *)

val timer : 'a t -> handle
(** A detached entry with no key that keeps its index for the wheel's
    lifetime, for {!arm}ing again and again. *)

val arm : 'a t -> handle -> key:int -> 'a -> unit
(** Schedule a {!timer} at [key] with payload [v], moving it if it is
    live.
    @raise Invalid_argument if [key < horizon] or [h] is not a timer. *)

val cancel : 'a t -> handle -> unit
(** O(1) true removal: unlinks the entry and, unless it is a {!timer},
    drops its payload eagerly so the value is not retained until its
    deadline.  A timer keeps its payload until the next {!arm}.  A no-op
    on an entry that has already fired or been cancelled, even once it is
    reused. *)

val is_live : 'a t -> handle -> bool
(** [true] while the entry is scheduled: not yet popped or cancelled. *)

val min_key : 'a t -> int
(** Smallest live key ([max_int] when empty), without moving the
    horizon. *)

val pop : 'a t -> 'a
(** Remove the earliest live entry, advance the horizon to its key, and
    return its payload.  A non-timer entry drops its payload and is
    recycled at once, and its handles go stale; a timer keeps its payload
    until the next {!arm}.
    @raise Invalid_argument when empty. *)

val peek_min : 'a t -> (int * 'a) option
(** Earliest live entry without removing it or moving the horizon. *)

val pop_min : 'a t -> (int * 'a) option
(** {!pop} with its key, boxing the result. *)
