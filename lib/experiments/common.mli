(** Shared experiment scaffolding: canonical testbeds and echo drivers. *)

val ip_a : Proto.Ipaddr.t
val ip_b : Proto.Ipaddr.t
val ip_client : Proto.Ipaddr.t
val ip_middle : Proto.Ipaddr.t
val ip_server : Proto.Ipaddr.t
val net1 : Proto.Ipaddr.t
val net2 : Proto.Ipaddr.t

type plexus_pair = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
}

val plexus_pair :
  ?costs:Netsim.Costs.t -> ?flowcache:bool -> Netsim.Costs.device ->
  plexus_pair
(** Two hosts with full Plexus stacks, ARP primed.  [flowcache] (default
    false) enables the dispatchers' per-flow fast-path cache. *)

type du_pair = {
  du_engine : Sim.Engine.t;
  dua : Osmodel.Du_stack.t;
  dub : Osmodel.Du_stack.t;
}

val du_pair : ?costs:Netsim.Costs.t -> Netsim.Costs.device -> du_pair

(** A closed-loop ping-pong: one request in flight at a time, the next
    one sent when the reply lands (or when the caller schedules it).
    Keeps the running mean round trip, not the samples. *)
module Pingpong : sig
  type t

  val create : warmup:int -> iters:int -> Sim.Engine.t -> t
  (** A loop of [warmup + iters] requests whose last [iters] round trips
      are measured. *)

  val start : t -> (unit -> unit) -> unit
  (** [start t ping] installs [ping] (send one request) and sends the
      first request. *)

  val next : t -> unit
  (** Stamp the send time and call [ping], unless every request has
      gone. *)

  val record : t -> unit
  (** The outstanding request's reply landed: add its round trip to the
      mean unless it is a warm-up request. *)

  val pong : t -> unit
  (** [record] then [next]: a reply that fires the next request
      synchronously. *)

  val mean_us : t -> float
  (** Mean measured round trip in µs; [nan] when none was recorded. *)
end

val udp_echo_plexus :
  ?costs:Netsim.Costs.t -> ?mode:Spin.Dispatcher.delivery -> ?payload_len:int ->
  ?warmup:int -> ?iters:int -> Netsim.Costs.device -> float
(** UDP echo round trips over a Plexus pair; returns the mean RTT in
    µs. *)

val udp_echo_du :
  ?payload_len:int -> ?warmup:int -> ?iters:int -> Netsim.Costs.device ->
  float

val udp_echo_ulib :
  ?payload_len:int -> ?warmup:int -> ?iters:int -> Netsim.Costs.device ->
  float
(** The same echo through a user-level protocol library (section 6's
    related-work model). *)

val raw_device_rtt : Netsim.Costs.device -> len:int -> float
(** Theoretical driver-to-driver round trip in µs (the paper's "minimal
    round trip time between the device drivers"). *)

val print_header : string -> unit
val mbps : bytes:int -> elapsed_us:float -> float
