(** User-level protocol libraries — the third execution model (paper
    section 6, [TNML93, MB93]): the kernel only filters and copies;
    protocol processing happens in the application's address space. *)

type t
type usock

type error = [ `Port_in_use of int ]

type counters = {
  mutable rx : int;
  mutable delivered : int;
  mutable filtered_out : int;  (** not IPv4 for this host or broadcast *)
  mutable bad_checksum : int;
  mutable malformed : int;  (** every other IPv4 or UDP drop reason *)
  mutable no_port : int;
  mutable tx : int;
}

val create : Netsim.Host.t -> t
(** Take over the host's first device with an in-kernel packet filter
    front end. *)

val counters : t -> counters
val prime_arp : t -> Proto.Ipaddr.t -> Proto.Ether.Mac.t -> unit

val udp_bind : t -> port:int -> (usock, [> error ]) result
val udp_set_recv : usock -> (src:Proto.Ipaddr.t * int -> string -> unit) -> unit

val udp_sendto : t -> usock -> dst:Proto.Ipaddr.t * int -> string -> unit
(** Build the full packet at user level, then trap into the kernel to
    transmit.  @raise Invalid_argument past {!Proto.Udp.max_payload}
    bytes. *)
