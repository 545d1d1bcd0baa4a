(** ARP protocol manager. *)

type t

val create : Graph.t -> Ether_mgr.t -> ip:Proto.Ipaddr.t -> t
(** Answer requests for [ip] and learn peers through
    {!Proto.Arp.Cache.learn}.  An unanswered request is retried every
    second and abandoned after three. *)

val cached : t -> Proto.Ipaddr.t -> Proto.Ether.Mac.t
(** The cached MAC for an address, or {!Proto.Ether.Mac.none} on a miss
    (an expired entry is dropped and misses).  Allocates nothing: the
    send path's probe, which calls {!resolve} only on a miss. *)

val resolve : t -> Proto.Ipaddr.t -> (Proto.Ether.Mac.t -> unit) -> unit
(** Cache hit: immediate.  Miss: broadcast a request and continue when the
    reply arrives. *)

val prime : t -> Proto.Ipaddr.t -> Proto.Ether.Mac.t -> unit
(** Pre-populate the cache (steady-state experiments). *)

val cache : t -> Proto.Arp.Cache.t
val requests_sent : t -> int
val replies_sent : t -> int

val resolution_failures : t -> int
(** Resolutions abandoned after the retry budget (unreachable hosts).
    Abandonment cancels the continuations queued for the address, so a
    reply arriving later cannot fire them. *)

val waiters_dropped : t -> int
(** Continuations cancelled by abandoned resolutions — each is a queued
    packet that was dropped, BSD-stall style. *)

val pending_count : t -> int
(** Resolutions currently awaiting a reply (with live retry timers). *)
