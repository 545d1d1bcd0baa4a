(** ARP (IPv4 over Ethernet) codec and resolution cache. *)

val packet_len : int
val op_request : int
val op_reply : int

type message = {
  op : int;
  sender_mac : Ether.Mac.t;
  sender_ip : Ipaddr.t;
  target_mac : Ether.Mac.t;
  target_ip : Ipaddr.t;
}

val parse : _ View.t -> message option
val to_packet : message -> Mbuf.rw Mbuf.t

val request :
  sender_mac:Ether.Mac.t -> sender_ip:Ipaddr.t -> target_ip:Ipaddr.t -> message

val reply_to : message -> mac:Ether.Mac.t -> message
(** The reply a host owning [message.target_ip] (with [mac]) sends. *)

module Cache : sig
  type t

  val create : ?ttl:Sim.Stime.t -> unit -> t

  val lookup : t -> now:Sim.Stime.t -> Ipaddr.t -> Ether.Mac.t option
  (** The live entry's MAC; an expired entry is removed and reads as
      [None]. *)

  val find_mac : t -> now:Sim.Stime.t -> Ipaddr.t -> Ether.Mac.t
  (** {!lookup} without the option: the MAC, or {!Ether.Mac.none} on a
      miss or an expired entry.  Allocates nothing. *)

  val insert : t -> now:Sim.Stime.t -> Ipaddr.t -> Ether.Mac.t -> unit

  val insert_static : t -> Ipaddr.t -> Ether.Mac.t -> unit
  (** An entry that never expires (until a learned one replaces it). *)

  val wait : t -> Ipaddr.t -> (Ether.Mac.t -> unit) -> unit
  (** Queue a continuation until the address resolves. *)

  val cancel_waiters : t -> Ipaddr.t -> int
  (** Drop every continuation queued for [ip], returning how many were
      dropped.  Called when a resolution is abandoned, so that a reply
      arriving after the retry budget is spent cannot fire stale
      continuations (and transmit packets the sender gave up on). *)

  val waiting_count : t -> Ipaddr.t -> int
  (** Continuations currently queued for [ip]. *)

  val size : t -> int
end

val pp_message : Format.formatter -> message -> unit
