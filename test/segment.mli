(** TCP segments built from a string, for tests. *)

val tcp :
  src:Proto.Ipaddr.t -> dst:Proto.Ipaddr.t -> Proto.Tcp_wire.header ->
  string -> Mbuf.rw Mbuf.t
