(** User/kernel boundary cost helpers for the DIGITAL UNIX model. *)

val copy_cost : Netsim.Costs.t -> int -> Sim.Stime.t
(** Cost of moving [len] bytes across the user/kernel boundary. *)

val enter :
  Sim.Cpu.t -> Netsim.Costs.t -> len:int -> (unit -> unit) -> unit
(** Syscall entry: trap + copy-in of [len] bytes, then kernel code [k]. *)
