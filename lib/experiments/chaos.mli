(** Chaos soak: UDP, fragmented UDP and TCP flows through randomized,
    seeded per-link fault plans, with integrity / accounting / resource
    invariants checked after every run. *)

(** The fault classes enabled on the link for a scenario. *)
type fault_mix = {
  loss : Netsim.Faults.loss;
  corrupt_prob : float;
  corrupt_min_off : int;
  duplicate_prob : float;
  jitter_prob : float;
  jitter_max : Sim.Stime.t;
}

val default_mix : fault_mix
(** Bernoulli loss + corruption + duplication + jitter. *)

val burst_mix : fault_mix
(** {!default_mix} with Gilbert–Elliott burst loss. *)

type udp_outcome = {
  u_sent : int;
  u_sunk : int;
  u_payload_ok : bool;
  u_bad_checksum : int;
  u_drops : int;
  u_corruptions : int;
  u_duplicates : int;
  u_delays : int;
  u_reconciled : bool;
  u_pool_leaked : int;
  u_pool_underflows : int;
}

val udp_blast :
  ?fcache:bool -> ?mix:fault_mix -> ?count:int -> ?payload_len:int ->
  seed:int -> unit -> udp_outcome
(** One-way UDP datagrams through the fault plan.  Corruption is
    constrained to the payload region, so the accounting must reconcile
    {e exactly}: [sunk + caught = sent - dropped + duplicated], with
    every injected corruption caught by the UDP checksum. *)

val udp_ok : udp_outcome -> bool
val pp_udp_outcome : Format.formatter -> udp_outcome -> unit

type frag_outcome = {
  f_sent : int;
  f_sunk : int;
  f_payload_ok : bool;
  f_bad_checksum : int;
  f_timeouts : int;
  f_pending : int;
  f_frames_sent : int;
  f_frames_rx : int;
  f_reconciled : bool;
  f_pool_leaked : int;
  f_pool_underflows : int;
}

val udp_frag :
  ?fcache:bool -> ?mix:fault_mix -> ?count:int -> ?payload_len:int ->
  seed:int -> unit -> frag_outcome
(** Datagrams larger than the MTU.  Frame-level accounting is exact
    ([frames_rx = frames_sent - dropped + duplicated]); datagram-level
    completions and timeouts are checked against the bounds the mix
    allows (a loss burst can eat a whole fragment set without trace; a
    delayed duplicate can open a ghost context that times out).  Nothing
    may be left pending after the run drains. *)

val frag_ok : frag_outcome -> bool
val pp_frag_outcome : Format.formatter -> frag_outcome -> unit

type tcp_outcome = {
  t_sent_bytes : int;
  t_recv_bytes : int;
  t_stream_ok : bool;
  t_complete : bool;
  t_error : string option;
  t_bad_checksum : int;
  t_corruptions : int;
  t_drops : int;
  t_pool_leaked : int;
  t_pool_underflows : int;
}

val tcp_transfer :
  ?fcache:bool -> ?mix:fault_mix -> seed:int -> unit -> tcp_outcome
(** A 16 KiB byte-stream transfer with corruption allowed anywhere past the
    Ethernet header: the received stream must be an exact prefix of what
    was sent (complete, or an error cleanly surfaced) — injected flips
    surface as retransmissions, never as stream corruption. *)

val tcp_ok : tcp_outcome -> bool
val pp_tcp_outcome : Format.formatter -> tcp_outcome -> unit

type soak = {
  seeds : int;
  udp_failures : int;
  frag_failures : int;
  tcp_failures : int;
  cache_divergences : int;
}

val udp_equivalent : udp_outcome -> udp_outcome -> bool
(** Flow-cached and uncached runs of the same seed must agree on every
    counter (cached delivery is observably equivalent, faults included). *)

val soak_ok : soak -> bool

val print : ?verbose:bool -> ?seeds:int -> ?base_seed:int -> unit -> soak
(** Sweep all three scenarios (and the cache-equivalence check) over
    [seeds] consecutive seeds, alternating Bernoulli and burst loss, and
    report on stdout. *)
