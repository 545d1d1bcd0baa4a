(** Typed operations Plexus exports through SPIN interfaces, with their
    witnesses.  Extensions declare imports of ([iface], [symbol]) pairs
    and project them through these witnesses at link time. *)

type ether_install =
  owner:string ->
  etype:int ->
  budget:Sim.Stime.t option ->
  (Pctx.t -> Spin.Ephemeral.t) ->
  (unit -> unit, string) result

type ether_send = dst:Proto.Ether.Mac.t -> etype:int -> Mbuf.rw Mbuf.t -> unit
type udp_bind = owner:string -> port:int -> (Endpoint.t, string) result
type udp_install_recv = Endpoint.t -> (Pctx.t -> unit) -> unit -> unit

type udp_install_recv_ephemeral =
  Endpoint.t -> budget:Sim.Stime.t option -> (Pctx.t -> Spin.Ephemeral.t) ->
  unit -> unit

type udp_send =
  Endpoint.t -> dst:Proto.Ipaddr.t * int -> checksum:bool -> string -> unit

type mbuf_alloc = int -> Mbuf.rw Mbuf.t

type tcp_conn_ops = {
  tc_send : string list -> unit;  (** one write of the chunks, in order *)
  tc_close : unit -> unit;
  tc_set_receive : (View.ro View.t -> unit) -> unit;
  tc_set_peer_close : (unit -> unit) -> unit;
  tc_set_close : (unit -> unit) -> unit;
}
(** Per-connection operations; the manager's connection object never
    crosses the interface. *)

type tcp_listen =
  owner:string -> port:int -> on_accept:(tcp_conn_ops -> unit) ->
  (unit -> unit, string) result
(** Returns the un-listener (for unlink-time cleanup). *)

type tcp_connect =
  owner:string -> dst:Proto.Ipaddr.t * int ->
  on_established:(tcp_conn_ops -> unit) -> (unit, string) result

val ether_iface : string
val udp_iface : string
val tcp_iface : string
val mbuf_iface : string

val sym_install_handler : string
val sym_send : string
val sym_bind : string
val sym_install_recv : string
val sym_install_recv_ephemeral : string
val sym_alloc : string
val sym_listen : string
val sym_connect : string

val ether_install_w : ether_install Spin.Univ.witness
val ether_send_w : ether_send Spin.Univ.witness
val udp_bind_w : udp_bind Spin.Univ.witness
val udp_install_recv_w : udp_install_recv Spin.Univ.witness
val udp_install_recv_ephemeral_w : udp_install_recv_ephemeral Spin.Univ.witness
val udp_send_w : udp_send Spin.Univ.witness
val mbuf_alloc_w : mbuf_alloc Spin.Univ.witness
val tcp_listen_w : tcp_listen Spin.Univ.witness
val tcp_connect_w : tcp_connect Spin.Univ.witness
