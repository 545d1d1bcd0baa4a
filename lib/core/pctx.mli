(** Protocol-graph event payload: read-only packet + demux state.

    {b The keeper rule.}  [pkt] is leased, not given: the driver top half
    holds it across its raise and the dispatcher holds it while a demux
    or a delivery on it is queued, and when the last of those steps has
    run the frame is freed and its buffers go back to the mbuf free
    lists, to be reused by the next allocation.  A handler may read
    [pkt], [frame] and {!view} during its run.  Code that keeps any of
    it past its run — in a queue, a later CPU item or a timer — must
    copy the bytes out ({!View.get_string}, {!Mbuf.copy_rw}) or take a
    hold of its own ({!Mbuf.hold}, released when done).

    The application's lease is one such hold: {!Tcp_mgr} holds a
    segment's frame while the application's [on_receive] callback is
    queued and releases it when the callback returns, so the view the
    application reads is valid for that callback only, and what it
    keeps it copies. *)

type t = {
  dev : Netsim.Dev.t;
  pkt : Mbuf.ro Mbuf.t;
  frame : View.ro View.t;
      (** All of [pkt], viewed once by {!make}/{!with_payload}: guards
          and layers read header fields through it in place. *)
  off : int;
  limit : int;
  ip : Proto.Ipv4.header option;
  src_port : int;
  dst_port : int;
}

val make : Netsim.Dev.t -> Mbuf.ro Mbuf.t -> t

val view : t -> View.ro View.t
(** The packet from the current layer's start on (zero-copy; the cached
    frame view itself while the cursor spans the whole frame). *)

val advance : t -> int -> t
(** Step the cursor past a header. *)

val with_ip : t -> Proto.Ipv4.header -> t
val with_ports : t -> src_port:int -> dst_port:int -> t

(** [with_limit t n] bounds the valid data to [n] bytes past the cursor
    (strips Ethernet padding below the IP total length). *)
val with_limit : t -> int -> t

val advance_ip : t -> int -> len:int -> Proto.Ipv4.header -> t
(** [advance_ip t n ~len h] is the IP layer's next-layer context in one
    record: {!advance} by [n], bound the data to at most [len] bytes past
    the new cursor, and attach [h].
    @raise Invalid_argument if [len] bytes past the cursor escape the
    frame. *)

val advance_ports : t -> int -> src_port:int -> dst_port:int -> t
(** {!advance} and {!with_ports} in one record. *)

val with_payload : t -> Mbuf.ro Mbuf.t -> t
val payload_len : t -> int
val data_touched_by_device : t -> bool
(** True on programmed-I/O arrival devices (checksum folds into the PIO
    pass — integrated layer processing). *)

val ip_exn : t -> Proto.Ipv4.header
