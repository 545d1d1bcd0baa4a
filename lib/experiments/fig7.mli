(** Figure 7: TCP redirection latency — in-kernel forwarder vs. splice. *)

type row = { payload : int; plexus_us : float; du_us : float }

val run :
  ?params:Netsim.Costs.device -> ?warmup:int -> ?iters:int -> unit -> row list

val print :
  ?params:Netsim.Costs.device -> ?warmup:int -> ?iters:int -> unit -> row list
