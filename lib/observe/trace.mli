(** Structured trace spans with pluggable sinks.

    The dispatch path emits typed spans — raise, guard evaluation,
    handler run, ephemeral commit/termination, drop — each
    carrying the simulated timestamp (integer nanoseconds), the event
    name and the handler involved, so a packet's path through the
    protocol graph can be reconstructed and asserted on in tests.

    A {!t} is a trace endpoint owning one {!sink}.  The [Null] sink is
    the default; emitters guard span construction with
    [if Trace.active tr then Trace.emit tr ...] so a disabled trace
    costs one field load and branch per site — nothing is allocated or
    formatted. *)

type event =
  | Raise of { event : string; candidates : int; switches : int }
      (** an event was raised; its dispatch-tree walk visited
          [switches] switches and reached a leaf of [candidates]
          handlers (proven matches plus guards to evaluate) *)
  | Guard_eval of { event : string; hid : int; label : string; hit : bool }
  | Handler_run of {
      event : string;
      hid : int;
      label : string;
      duration_ns : int;  (** modelled CPU cost charged for the run *)
    }
  | Ephemeral_commit of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Terminated of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;  (** the expired budget *)
    }  (** an ephemeral program hit its budget and was cut off *)
  | Cache_hit of { event : string; hops : int; handlers : int }
      (** a raise was served from the flow-path cache: [hops] recorded
          raises were replayed delivering [handlers] handlers, with no
          demux or guard evaluation *)
  | Cache_invalidate of { event : string; reason : string }
      (** a cached flow path was discarded (stale generation, divergent
          replay, or a discarded recording) *)
  | Drop of { scope : string; reason : string }
      (** a packet was dropped: [scope] is the device (e.g.
          ["hostA.ethernet0"]), manager or event that dropped it *)
  | Wire_fault of { link : string; fault : string; detail : string }
      (** an injected link fault fired: [fault] is the fault class
          (["loss"], ["burst_loss"], ["corrupt"], ["duplicate"],
          ["delay"], ["down"]), [link] the transmitting device *)
  | Handoff of {
      op : string;
          (** ["enqueue"] (frames pushed to a peer's SPSC ring),
              ["self_drain"] (producer drained its own ring because a
              peer's was full) or ["phase_b_drain"] (frames found during
              two-phase quiescence) *)
      from_domain : int;
      to_domain : int;
      frames : int;
    }  (** a cross-domain SPSC ring handoff in the parallel datapath *)

type span = { at_ns : int; event : event }

val kind : event -> string
(** Short tag: ["raise"], ["guard_eval"], ["handler_run"], ... *)

val scope : event -> string
(** The event/scope name the span belongs to, e.g. ["udp.PacketRecv"]. *)

val pp_span : Format.formatter -> span -> unit

(** Bounded in-memory span buffer; the newest spans win. *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 1024.  @raise Invalid_argument if [<= 0]. *)

  val capacity : t -> int
  val length : t -> int

  val dropped : t -> int
  (** Spans overwritten since the last {!clear}. *)

  val clear : t -> unit
  val push : t -> span -> unit

  val to_list : t -> span list
  (** Retained spans, oldest first. *)
end

type sink =
  | Null  (** discard; the zero-cost default *)
  | Stderr  (** print each span as text *)
  | Ring of Ring.t  (** retain the last N spans in memory *)
  | Fn of (span -> unit)  (** custom *)

type t

val create : ?sink:sink -> unit -> t
val set_sink : t -> sink -> unit
val sink : t -> sink

val active : t -> bool
(** [true] unless the sink is [Null].  Guard span construction with this
    on hot paths. *)

val emit : t -> span -> unit
