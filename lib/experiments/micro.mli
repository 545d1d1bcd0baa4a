(** Section 3.3 microbenchmarks: active messages at interrupt level and
    budget termination. *)

type am_result = {
  interrupt_rtt : float;
  thread_rtt : float;
  udp_rtt : float;
}

val run : ?params:Netsim.Costs.device -> ?iters:int -> unit -> am_result

type termination_result = {
  messages : int;
  terminations : int;
  committed_actions : int;
}

val budget_termination :
  ?messages:int -> ?actions:int -> ?action_cost:Sim.Stime.t ->
  ?budget:Sim.Stime.t -> unit -> termination_result
(** Drive over-budget EPHEMERAL handlers and report how much committed. *)

val print : ?params:Netsim.Costs.device -> ?iters:int -> unit -> am_result
