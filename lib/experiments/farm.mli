(** Server-farm steady state: N clients behind per-client in-kernel
    forwarders hammering one HTTP server host.

    Two drivers share the chain topology
    [client_i -- forwarder_i -- server]:

    - {!run}/{!print}: an open heavy-tailed workload (Poisson request
      arrivals per client, Pareto-distributed response sizes) reporting
      goodput and p50/p99 request latency.
    - {!scale_setup}: the flow-population probe — park [live_flows]
      idle established connections, then drive fresh request/response
      probes through the loaded datapath.  Per-packet cost must stay
      flat as the population grows 100x; the tier-1 test
      [scale.workload] checks it in minor words per wire packet (the
      sharded-table/timer-wheel acceptance gate). *)

val service_port : int
val server_ip : Proto.Ipaddr.t

type result = {
  clients : int;
  completed : int;  (** measured request completions (post-warmup) *)
  errors : int;
  goodput_mbps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  evictions : int;  (** server path-cache evictions over the run *)
}

val run :
  ?params:Netsim.Costs.device ->
  ?flowcache:bool ->
  ?clients:int ->
  ?seed:int ->
  ?warmup:int ->
  ?requests:int ->
  ?mean_gap_us:float ->
  ?shape:float ->
  ?scale:float ->
  unit ->
  result
(** Heavy-tailed workload: each client loops [draw Poisson gap; GET a
    Pareto-sized page; wait for the response].  [warmup] completions are
    discarded, the next [requests] are measured.  [shape]/[scale] are
    the Pareto parameters of the drawn response size in bytes
    (quantised to log-spaced pages up to 64 KB). *)

val print :
  ?params:Netsim.Costs.device ->
  ?flowcache:bool ->
  ?clients:int ->
  ?seed:int ->
  ?warmup:int ->
  ?requests:int ->
  ?mean_gap_us:float ->
  ?shape:float ->
  ?scale:float ->
  unit ->
  result
(** [run] plus a human-readable table. *)

type probe = {
  live_flows : int;    (** idle established connections held open *)
  established : int;   (** how many completed the handshake *)
  probes : int;        (** fresh request/response exchanges this round *)
  probe_errors : int;
  packets : int;       (** wire frames carried during the probe round *)
  sim_elapsed_us : float;
  probe_goodput_mbps : float;
  probe_p50_us : float;
  probe_p99_us : float;
}

val scale_setup :
  ?params:Netsim.Costs.device ->
  ?clients:int ->
  ?seed:int ->
  ?setup_gap_us:int ->
  ?probe_gap_us:float ->
  live_flows:int ->
  probes:int ->
  unit ->
  unit ->
  probe
(** [scale_setup ~live_flows ~probes ()] builds the farm, establishes
    [live_flows] idle connections (a closed loop per client — the next
    handshake starts [setup_gap_us] after the previous completes, so
    the connect rate self-paces to the server's simulated CPU), and
    returns a thunk.  Each thunk call drives [probes] fresh HTTP exchanges
    through the loaded farm and reports the wire-frame count — wrap the
    call in a counter (minor words, host time) and divide to get the
    cost per simulated packet.  The thunk is repeatable; its k-th call
    drives the same simulated probe schedule whatever [live_flows] is. *)
