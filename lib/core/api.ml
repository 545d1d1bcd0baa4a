(* The typed symbols that Plexus exports through SPIN interfaces.

   Extensions import these (interface name, symbol name) pairs and recover
   the operations through the witnesses below; a mismatch is a link-time
   type clash, exactly as for Modula-3 extensions.  The closure types keep
   errors as strings so the witness types stay simple at the boundary. *)

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

(* Per-connection operations handed to extensions through the Tcp
   interface; the connection object itself stays inside the manager. *)
type tcp_conn_ops = {
  tc_send : string list -> unit;  (* one write of the chunks, in order *)
  tc_close : unit -> unit;
  tc_set_receive : (View.ro View.t -> unit) -> unit;
  tc_set_peer_close : (unit -> unit) -> unit;
  tc_set_close : (unit -> unit) -> unit;
}

type tcp_listen =
  owner:string -> port:int -> on_accept:(tcp_conn_ops -> unit) ->
  (unit -> unit, string) result

type tcp_connect =
  owner:string -> dst:Proto.Ipaddr.t * int ->
  on_established:(tcp_conn_ops -> unit) -> (unit, string) result

(* Interface and symbol names. *)
let ether_iface = "Ether"
let udp_iface = "Udp"
let tcp_iface = "Tcp"
let mbuf_iface = "Mbuf"

let sym_install_handler = "InstallHandler"
let sym_send = "PacketSend"
let sym_bind = "Bind"
let sym_install_recv = "InstallRecv"
let sym_install_recv_ephemeral = "InstallRecvEphemeral"
let sym_alloc = "Alloc"
let sym_listen = "Listen"
let sym_connect = "Connect"

(* Witnesses — one global per exported operation type. *)
let ether_install_w : ether_install Spin.Univ.witness = Spin.Univ.witness ()
let ether_send_w : ether_send Spin.Univ.witness = Spin.Univ.witness ()
let udp_bind_w : udp_bind Spin.Univ.witness = Spin.Univ.witness ()
let udp_install_recv_w : udp_install_recv Spin.Univ.witness = Spin.Univ.witness ()

let udp_install_recv_ephemeral_w : udp_install_recv_ephemeral Spin.Univ.witness =
  Spin.Univ.witness ()

let udp_send_w : udp_send Spin.Univ.witness = Spin.Univ.witness ()
let mbuf_alloc_w : mbuf_alloc Spin.Univ.witness = Spin.Univ.witness ()
let tcp_listen_w : tcp_listen Spin.Univ.witness = Spin.Univ.witness ()
let tcp_connect_w : tcp_connect Spin.Univ.witness = Spin.Univ.witness ()
