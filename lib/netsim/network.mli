(** Experiment topologies. *)

type endpoint = { host : Host.t; dev : Dev.t }

val pair :
  ?costs:Costs.t -> Sim.Engine.t -> Costs.device ->
  a:string * Proto.Ipaddr.t -> b:string * Proto.Ipaddr.t ->
  endpoint * endpoint
(** Two hosts joined by one link of the given device type. *)

val install_faults : ?seed:int -> endpoint -> Faults.t
(** Attach a fresh fault plan to the endpoint's device (the [a -> b]
    direction of the link) and register its injection counters in the
    host's registry under [faults.<dev>.*].  The plan's RNG is split
    from the engine stream unless [seed] pins it. *)

val line3 :
  ?costs:Costs.t -> Sim.Engine.t -> Costs.device ->
  client:string * Proto.Ipaddr.t -> middle:string * Proto.Ipaddr.t ->
  server:string * Proto.Ipaddr.t ->
  endpoint * (endpoint * endpoint) * endpoint
(** Client — middle (two devices) — server, for the forwarding
    experiment. *)
