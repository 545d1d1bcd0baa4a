(** DMA disk model (video-frame source for the Figure 6 experiment). *)

type t

val create :
  ?bw_bytes_per_s:int -> ?access:Sim.Stime.t -> Sim.Engine.t ->
  cpu:Sim.Cpu.t -> costs:Costs.t -> t

val read : t -> len:int -> (string -> unit) -> unit
(** Read [len] bytes; the continuation runs in the completion interrupt.
    Requests are serialized at the disk. *)

val reads : t -> int
val utilization : t -> float
