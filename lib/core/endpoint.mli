(** Endpoints: the unit of send/receive legitimacy (anti-spoof and
    anti-snoop policy, paper section 3.1). *)

type proto = Udp | Tcp

type t = private { proto : proto; ip : Proto.Ipaddr.t; port : int; owner : string }

val make : proto:proto -> ip:Proto.Ipaddr.t -> port:int -> owner:string -> t
val ip : t -> Proto.Ipaddr.t
val port : t -> int
val owner : t -> string
val pp : Format.formatter -> t -> unit
