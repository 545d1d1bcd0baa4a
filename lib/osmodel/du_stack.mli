(** The DIGITAL UNIX baseline: monolithic kernel stack + BSD sockets.

    Runs the same wire formats, device models and TCP engine as Plexus;
    differs only in OS structure (kernel-resident protocols, user-level
    applications, traps/copies/context switches at the boundary).  This
    isolates exactly the architectural comparison of the paper's
    evaluation. *)

type t
type udp_sock
type tconn

type error = [ `Port_in_use of int ]

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable malformed : int;  (** every other IPv4, UDP or TCP drop reason *)
  mutable no_port : int;
      (** no UDP socket; or no TCP connection, and no listener this
          segment may open one on (only an opening SYN may) *)
  mutable udp_delivered : int;
  mutable tcp_rx : int;
  mutable echos_answered : int;
}

val create : ?subnets:(Proto.Ipaddr.t * int) list -> Netsim.Host.t -> t
(** Take over every device on the host (one subnet per device; default is
    the host's /24 everywhere). *)

val counters : t -> counters
val host : t -> Netsim.Host.t
val frag_state : t -> Proto.Ip_frag.t

val tcp_conns : t -> int
(** Live TCP connections, in any state. *)

val prime_arp : t -> Proto.Ipaddr.t -> Proto.Ether.Mac.t -> unit

(** {1 UDP sockets} *)

val udp_bind : t -> port:int -> (udp_sock, [> error ]) result
val udp_set_recv : udp_sock -> (src:Proto.Ipaddr.t * int -> string -> unit) -> unit

val udp_sendto :
  t -> udp_sock -> ?checksum:bool -> dst:Proto.Ipaddr.t * int -> string -> unit
(** sendto(2): trap + copy-in + socket and protocol processing.
    @raise Invalid_argument past {!Proto.Udp.max_payload} bytes. *)

(** {1 TCP sockets} *)

val tcp_listen :
  t -> port:int -> ?cfg:Proto.Tcp.config -> on_accept:(tconn -> unit) ->
  unit -> (unit, [> error ]) result

val tcp_connect :
  t -> dst:Proto.Ipaddr.t * int -> ?cfg:Proto.Tcp.config -> unit -> tconn
(** connect(2) from an ephemeral port ({!Proto.Tcp_table.alloc_ephemeral}).
    @raise Failure when every ephemeral port has a live connection to
    [dst] or a listener. *)

val tcp_send : t -> tconn -> string -> unit
val tcp_close : t -> tconn -> unit

val on_receive : tconn -> (View.ro View.t -> unit) -> unit
(** The connection's in-order bytes, as read-only views of the socket
    buffer's copy, valid for the callback only. *)

val on_established : tconn -> (unit -> unit) -> unit
val on_peer_close : tconn -> (unit -> unit) -> unit
val on_close : tconn -> (unit -> unit) -> unit
