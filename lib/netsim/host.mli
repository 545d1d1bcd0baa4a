(** A simulated workstation: CPU + SPIN kernel + devices. *)

type t

val create :
  ?costs:Costs.t -> Sim.Engine.t -> name:string -> ip:Proto.Ipaddr.t -> t
(** Devices added later publish their gauges into the kernel's registry
    and share its trace endpoint and flight recorder. *)

val name : t -> string
val engine : t -> Sim.Engine.t
val kernel : t -> Spin.Kernel.t
val cpu : t -> Sim.Cpu.t
val costs : t -> Costs.t
val ip : t -> Proto.Ipaddr.t
val devices : t -> Dev.t list

val add_device : ?mac:Proto.Ether.Mac.t -> t -> Costs.device -> Dev.t
(** Attach a device of the given parameter set (auto-assigned MAC by
    default). *)

val utilization : t -> float
val reset_utilization : t -> unit
