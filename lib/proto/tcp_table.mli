(** The TCP endpoint table: every piece of TCP demultiplexing state a
    stack keeps, shared by Plexus's TCP manager and the DIGITAL UNIX
    baseline so that both open, find and forget connections the same way.

    It holds connections (['c]) keyed by (remote ip, remote port, local
    port), listeners (['l]) keyed by local port, and the ephemeral port
    allocator.  A stack keeps only its own costs, counters and delivery,
    the same split as {!Ipv4.check} and {!Tcp_wire.check}. *)

type ('c, 'l) t

type ('c, 'l) verdict =
  | Conn of 'c  (** the connection on the segment's 4-tuple *)
  | Listener of 'l
      (** no connection; the segment is an {!Tcp_wire.opening_syn} to
          this listener's port: accept on it *)
  | No_match

val create : unit -> ('c, 'l) t

val find : ('c, 'l) t -> src:Ipaddr.t -> _ View.t -> ('c, 'l) verdict
(** The passive-open decision for a segment from [src] that
    {!Tcp_wire.check} accepted.  Allocates nothing: a hit returns the
    verdict stored when the connection or listener was added. *)

(** {1 Connections} *)

type key
(** One connection's registration. *)

val key : remote:Ipaddr.t * int -> local_port:int -> key

val add : ('c, 'l) t -> key -> 'c -> unit
(** @raise Invalid_argument if [key]'s tuple already has a connection. *)

val remove : ('c, 'l) t -> key -> unit
(** Forget the connection added under [key].  A no-op after the first
    call, so a connection that reports its close twice cannot remove a
    later connection on the same tuple. *)

val length : ('c, 'l) t -> int
(** Live connections. *)

(** {1 Listeners} *)

val listen :
  ('c, 'l) t -> port:int -> 'l -> (unit, [> `Port_in_use of int ]) result

val unlisten : ('c, 'l) t -> int -> unit

(** {1 Ephemeral ports} *)

val alloc_ephemeral : ('c, 'l) t -> dst:Ipaddr.t * int -> int option
(** A local port in 32768–60999 with no listener and no connection to
    [dst], scanning round-robin from just past the last one handed out;
    [None] when every port in the range is taken for [dst].  Ports are
    per destination, so the connection space grows with the number of
    remote endpoints. *)
