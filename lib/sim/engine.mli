(** Discrete-event simulation engine.

    An engine owns a virtual clock and a queue of pending events.  Running
    the engine pops events in time order, advancing the clock; an event is
    an arbitrary thunk that may schedule further events. *)

type t

type handle
(** A scheduled event, usable for cancellation: an int packing the
    event's wheel entry and that entry's generation. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at zero.  [seed] initialises {!rng}. *)

val now : t -> Stime.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's deterministic random stream. *)

val events_run : t -> int
(** Number of events executed so far, elided ones (see {!elide})
    included. *)

val popped : t -> int
(** Number of events that went through the queue: {!events_run} less the
    elided ones. *)

val pending : t -> int
(** Number of live events still queued.  Cancelled events are removed
    eagerly and never counted. *)

val schedule : t -> at:Stime.t -> (unit -> unit) -> handle
(** [schedule t ~at k] runs [k] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_in : t -> delay:Stime.t -> (unit -> unit) -> handle
(** [schedule_in t ~delay k] runs [k] after [delay] of virtual time. *)

val post : t -> at:Stime.t -> (unit -> unit) -> unit
(** [schedule] for an event nobody will cancel.  Like every event, its
    entry is recycled once it has fired, so posting allocates nothing but
    the thunk. *)

val post_in : t -> delay:Stime.t -> (unit -> unit) -> unit

val timer : t -> handle
(** An unscheduled event entry that {!arm} can schedule again and again
    — one entry, never recycled, for a stream of one-at-a-time
    deadlines.  It keeps its last thunk after firing or {!cancel}, until
    the next [arm]; re-arming with the same thunk stores no pointer. *)

val arm : t -> handle -> at:Stime.t -> (unit -> unit) -> unit
(** [arm t h ~at k] schedules [h] to run [k] at [at], moving it if it is
    still pending.
    @raise Invalid_argument if [at] is in the past or [h] does not come
    from {!timer}. *)

val cancel : t -> handle -> unit
(** Prevent a scheduled event from running.  The event is removed from the
    queue immediately and, unless it is a {!timer}, its thunk dropped, so
    cancellation retains no memory until the original deadline.  A no-op
    once the event has fired or been cancelled, even after its entry is
    reused. *)

val capacity : t -> int
(** Event entries the queue holds, live or free: its high-water mark. *)

val elide : t -> int -> bool
(** [elide t at] asks to run an event due at [at] (ns) in place, without
    scheduling it: allowed only inside {!run}, when [at] lies strictly
    before every queued event — so the queue would pop it next — and
    within [run]'s [until] and [max_events].  When allowed, the clock
    moves to [at], the event is counted in {!events_run} (not in
    {!popped}) and the result is [true]; the caller must then run the
    event at once.  Otherwise nothing changes and the caller schedules
    it.  A tie with a queued event never elides: that event runs
    first. *)

val step : t -> bool
(** Run the single earliest event.  [false] when the queue is empty.
    Outside {!run} nothing elides, so a loop of [step] calls pops every
    event through the queue: the same events at the same instants as
    {!run}, one per call. *)

val run : ?until:Stime.t -> ?max_events:int -> t -> unit
(** Run events until the queue empties, the clock would pass [until], or
    [max_events] have executed, elided events included.  Inside [run] the
    CPU model finishes back-to-back work items by {!elide}, so the clock
    never passes [until] and the count never passes [max_events] that
    way either.  When [until] is given the clock is left at exactly
    [until] (or later if an event fired there). *)
