(** Seeded RSS workload plans for the multicore datapath.

    A plan is the steady-state UDP server workload (the PR 4/PR 6 bench
    configuration) expressed as prebuilt wire frames with two
    pre-computed shard hashes:

    - [steer_hash] — the hash the simulated NIC's RSS unit computes to
      pick a receive queue (= worker domain).  For most flows the NIC
      hashes the full 5-tuple, exactly like the software shard rule; a
      configurable fraction of "legacy" flows emulate a NIC that falls
      back to the 2-tuple (src ip, dst ip), and ARP frames arrive
      round-robin — both sources of mis-sharding.
    - [owner_hash] — the software shard rule: the generic hash of the
      real {!Plexus.Filter.flow_signature} (the packed 5-tuple the
      flow-path cache keys on).  Negative means unsignable control
      traffic, which domain 0 owns.

    A frame whose steer and owner disagree (mod the domain count) must
    be forwarded owner-ward over an SPSC ring.  Frame bytes are
    immutable strings, safe to share read-only across domains; each
    worker copies them into its own domain-local mbuf pool on arrival
    (its "DMA").  The plan depends only on the constructor arguments, so
    1-domain and N-domain runs consume byte-identical traffic. *)

val ip_a : Proto.Ipaddr.t
val ip_b : Proto.Ipaddr.t
(** Client and server addresses (the canonical two-host testbed). *)

type kind =
  | Udp of { flow : int }  (** steady-state datagram of flow [flow] *)
  | Arp of { seq : int }   (** broadcast ARP request for {!ip_b} *)

type frame = {
  bytes : string;    (** full Ethernet frame, immutable *)
  steer_hash : int;  (** NIC RSS hash; queue = hash mod domains *)
  owner_hash : int;  (** 5-tuple signature hash; negative = control *)
  kind : kind;
  pkt : int;
      (** 1-based arrival ordinal in the plan — the flight-recorder
          sampling key ({!Observe.Flight.mark_for}), identical across
          domain counts so every shard agrees on the sampled set *)
}

type t = {
  seed : int;
  flows : int;
  pkts_per_flow : int;
  payload_len : int;
  udp_frames : int;
  arp_frames : int;
  frames : frame array;  (** arrival order; per-flow subsequences FIFO *)
}

val make :
  ?payload_len:int ->
  seed:int ->
  flows:int ->
  pkts_per_flow:int ->
  unit ->
  t
(** [make ~seed ~flows ~pkts_per_flow ()] builds the plan: [flows]
    distinct UDP flows (varying source ip and port) of [pkts_per_flow]
    datagrams each, arrival order shuffled per round from [seed], with
    one ARP request woven in per 64 datagrams and every 4th flow
    steered by the legacy 2-tuple hash.  [payload_len] defaults to 256. *)

val steer : domains:int -> frame -> int
(** The receive queue (worker domain) the NIC delivers the frame to. *)

val owner : domains:int -> frame -> int
(** The domain the shard rule assigns the frame's flow to; control
    frames belong to domain 0.  [steer <> owner] frames are handed off
    over rings. *)
