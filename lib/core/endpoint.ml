(* Communication endpoints — the unit of legitimacy for the protection
   policy of paper section 3.1.  A manager mints an endpoint when an
   application binds a port; guards derived from the endpoint prevent
   snooping (only packets addressed to it reach its handlers) and the
   send path takes source fields from the endpoint, preventing
   spoofing. *)

type proto = Udp | Tcp

type t = { proto : proto; ip : Proto.Ipaddr.t; port : int; owner : string }

let make ~proto ~ip ~port ~owner = { proto; ip; port; owner }

let ip t = t.ip
let port t = t.port
let owner t = t.owner

let pp ppf t =
  Fmt.pf ppf "%s:%a:%d(%s)"
    (match t.proto with Udp -> "udp" | Tcp -> "tcp")
    Proto.Ipaddr.pp t.ip t.port t.owner
