(** Reliable blast: an application-specific NACK-based bulk transfer over
    UDP (the application-level-framing style the paper's introduction
    motivates).  Loss recovery is receiver-driven and per-frame; there is
    no connection to establish. *)

type sender
type receiver

val send :
  Plexus.Stack.t -> port:int -> dst:Proto.Ipaddr.t * int -> chunk:int ->
  data:string -> on_complete:(unit -> unit) -> sender
(** Blast [data] in [chunk]-byte frames; [on_complete] runs when the
    receiver confirms full delivery. *)

val receive :
  Plexus.Stack.t -> port:int -> on_complete:(string -> unit) -> receiver
(** Await one blast; [on_complete] receives the reassembled data. *)

val retransmissions : sender -> int
val end_probes : sender -> int
val complete : sender -> bool
val nacks_sent : receiver -> int
