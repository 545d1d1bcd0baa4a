(** ICMP echo request/reply and error messages. *)

val type_echo_reply : int
val type_dest_unreachable : int
val type_time_exceeded : int
val type_echo_request : int
val code_port_unreachable : int

type message = {
  mtype : int;
  code : int;
  ident : int;
  seq : int;
  payload : string;
}

val parse : _ View.t -> message option
val to_packet : message -> Mbuf.rw Mbuf.t
(** Encode with checksum. *)

val valid : _ View.t -> bool
val echo_request : ident:int -> seq:int -> string -> message
val echo_reply_of : message -> message

val error :
  mtype:int -> code:int -> Ipv4.header -> _ View.t -> Mbuf.rw Mbuf.t
(** An ICMP error quoting the offending datagram as RFC 792 asks: its IP
    header, written from [h], then the first 8 bytes of its transport
    data [l4] — 28 bytes at most, whatever the datagram's size. *)

