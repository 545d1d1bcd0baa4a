(** TCP protocol manager: the shared TCP engine as a Plexus graph
    citizen, with per-connection demultiplexing and support for multiple
    coexisting TCP implementations (paper section 3.1). *)

type t
type conn

type error = [ `Port_in_use of int | `Ephemeral_exhausted ]
(** [`Ephemeral_exhausted]: every port in the ephemeral range has a live
    connection to the requested destination or a listener, so [connect]
    cannot proceed. *)

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
      (** {!Proto.Tcp_wire.check} [Bad_checksum], before demultiplexing —
          a corrupted segment never selects a connection (or reaches a
          listener) by its possibly-corrupted ports. *)
  mutable malformed : int;
      (** {!Proto.Tcp_wire.check} [Runt] or [Bad_offset] *)
  mutable no_match : int;
      (** no connection, and no listener this segment may open one on
          (only an opening SYN may) *)
  mutable accepted : int;
  mutable eph_exhausted : int;
      (** Failed ephemeral allocations (full range sweep found no port
          free for the destination). *)
}

val create : Graph.t -> Ip_mgr.t -> t

val counters : t -> counters

val exclude_ports : t -> int list -> unit
(** Cede a set of destination ports to an alternative TCP implementation:
    this manager's guard stops matching them ("TCP-standard processes all
    TCP packets but those destined for the second"). *)

val exclude_src_ports : t -> int list -> unit
(** Cede packets by *source* port (the forwarder's reverse direction). *)

val listen :
  t -> owner:string -> port:int -> ?cfg:Proto.Tcp.config ->
  on_accept:(conn -> unit) -> unit ->
  (unit, [> `Port_in_use of int ]) result

val unlisten : t -> int -> unit

val connect :
  t -> owner:string -> dst:Proto.Ipaddr.t * int ->
  ?cfg:Proto.Tcp.config -> unit -> (conn, [> error ]) result

val send : conn -> string -> unit

val sendv : conn -> string list -> unit
(** Queue the chunks, in order, as one write ({!Proto.Tcp.sendv}). *)

val close : conn -> unit
val abort : conn -> unit

val on_receive : conn -> (View.ro View.t -> unit) -> unit
(** The connection's in-order bytes, as read-only views into the frames
    they arrived in.  The frame is held while the callback is queued
    and released when it returns, so a view is valid for the callback
    only (the keeper rule, {!Pctx}): copy what you keep. *)

val on_established : conn -> (unit -> unit) -> unit
val on_peer_close : conn -> (unit -> unit) -> unit
val on_close : conn -> (unit -> unit) -> unit
val on_error : conn -> (string -> unit) -> unit

val tcp : conn -> Proto.Tcp.t
