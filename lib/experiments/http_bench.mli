(** HTTP GET latency: the closing demo, Plexus vs. DIGITAL UNIX. *)

type result = { plexus_us : float; du_us : float; body_len : int }

val print :
  ?params:Netsim.Costs.device -> ?warmup:int -> ?iters:int -> unit -> result
