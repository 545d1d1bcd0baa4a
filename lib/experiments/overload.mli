(** Overload resilience: UDP goodput under a 2x blast, with and without
    the device's interrupt admission control (receive-livelock
    mitigation). *)

type point = {
  offered_pps : int;
  unmitigated_goodput : float;
  mitigated_goodput : float;
}

val default_offered_pps : int
(** 2x the victim's per-datagram service capacity. *)

val print : ?offered_pps:int -> unit -> point
(** Run the blast with and without admission control and report the
    victim's goodput on stdout. *)
