(** Receive-overload experiment: interrupt-level protocol processing vs.
    thread-priority application progress. *)

type point = {
  offered_pps : int;
  interrupt_progress : float;
  thread_progress : float;
}

val run_one :
  ?poisson:bool -> mode:Spin.Dispatcher.delivery -> offered_pps:int -> unit ->
  float
(** Compute iterations completed per second of simulated time while the
    host receives the given UDP packet rate ([~poisson:true] draws
    exponential inter-arrivals instead of a fixed period). *)

val print : ?poisson:bool -> ?rates:int list -> unit -> point list
