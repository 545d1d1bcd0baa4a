(** Simulated processor with CPU-time accounting.

    Protocol code in this reproduction executes instantaneously in OCaml
    but charges modelled CPU time here.  The CPU serializes charged work,
    so both packet latency (queueing + service) and processor utilization
    emerge from the cost model. *)

type t

type prio =
  | Interrupt  (** served before all thread work; used for device interrupts
                   and ephemeral handlers delegated to interrupt level *)
  | Thread     (** kernel threads and user processes *)

val create : Engine.t -> name:string -> t

val name : t -> string

val engine : t -> Engine.t
(** The engine this CPU charges time against. *)

val run : t -> ?prio:prio -> cost:Stime.t -> (unit -> unit) -> unit
(** [run t ~prio ~cost k] enqueues [cost] worth of work; [k] fires when the
    work completes.  Two-level priority service, non-preemptive by
    default (see {!set_preemptive}). *)

val submit : t -> prio -> cost:Stime.t -> (unit -> unit) -> unit
(** {!run} with the priority passed positionally.  Use it where the
    priority is a variable: an optional argument boxes it in [Some] at
    every call, and this is the allocation-free form. *)

val charge : t -> cost:Stime.t -> unit
(** Account [cost] of CPU time performed inline by the caller, without a
    work item or an engine event: the CPU is reserved until [now + cost]
    (stacking with any outstanding reservation), and pending or future
    {!run} work is served only after the reservation elapses.  Busy-time
    and utilization accounting include the charge. *)

val set_preemptive : t -> bool -> unit
(** When enabled, an interrupt-priority arrival suspends in-service
    thread-priority work; the remainder resumes after interrupts drain.
    Default: off (the calibrated experiments use non-preemptive
    service). *)

val preemptive : t -> bool

val busy_time : t -> Stime.t
(** Total CPU time charged since creation. *)

val served : t -> int
(** Number of work items completed. *)

val reset_window : t -> unit
(** Start a fresh utilization accounting window at the current time. *)

val utilization : t -> float
(** Fraction of the current window the CPU spent busy, in [0, 1+)
    (can exceed 1 transiently only if work completed exactly at the
    window edge; practically bounded by 1). *)

val queue_depth : t -> int
(** Items waiting (not including the one in service). *)

val capacity : t -> int
(** Work items the pool holds, queued, in service or free: its
    high-water mark.  Grows by doubling and never shrinks. *)
