(** TCP wire format and sequence arithmetic. *)

val header_len : int

module Flags : sig
  type t = private int

  val fin : t
  val syn : t
  val rst : t
  val psh : t
  val ack : t
  val test : t -> t -> bool
  val ( + ) : t -> t -> t
end

module Seq : sig
  type t = private int
  (** 32-bit sequence numbers with modular comparison. *)

  val of_int : int -> t
  val to_int : t -> int
  val add : t -> int -> t
  val diff : t -> t -> int
  val lt : t -> t -> bool
  val le : t -> t -> bool
  val gt : t -> t -> bool
  val ge : t -> t -> bool
end

type header = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : Flags.t;
  window : int;
}

(** Field byte offsets within the header: the one declaration of its
    layout, shared by {!parse}, {!write} and the accessors. *)
module Off : sig
  val src_port : int
  val dst_port : int
  val seq : int
  val ack : int
  val data_off : int
  val flags : int
  val window : int
  val cksum : int
end

val parse : _ View.t -> (header * int) option
(** [(header, data_offset_bytes)] of the segment at the view's start,
    [Some] exactly when {!has_header}.  A codec, not a validator:
    receivers use {!check}. *)

val read : _ View.t -> header
(** The header record, for a view that {!has_header}. *)

(** {1 In-place access}

    Read one field where it lies, with one bounds check and no record.
    [has_header v] holds exactly when [parse v] is [Some _]; a getter on
    a shorter view raises [View.Out_of_bounds]. *)

val has_header : _ View.t -> bool
val get_src_port : _ View.t -> int
val get_dst_port : _ View.t -> int
val get_seq : _ View.t -> Seq.t
val get_ack : _ View.t -> Seq.t
val get_flags : _ View.t -> Flags.t
val get_window : _ View.t -> int

val get_data_off : _ View.t -> int
(** The data offset, in bytes. *)

val compute_cksum : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> int

val to_packet :
  src:Ipaddr.t -> dst:Ipaddr.t -> header -> Byteq.t -> off:int -> len:int ->
  Mbuf.rw Mbuf.t
(** Encode a checksummed segment whose payload is the [len] bytes [off]
    bytes after the head of the queue (see {!Byteq.blit}). *)

(** Why a receiver refuses a segment. *)
type drop =
  | Runt  (** shorter than a header *)
  | Bad_offset  (** data offset under 20 bytes or past the segment *)
  | Bad_checksum

val drop_name : drop -> string
(** The reason as a span label: ["runt"], ["bad_offset"],
    ["bad_checksum"]. *)

val check : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> drop option
(** The first reason, in the order above, to refuse the segment view
    (header + payload) IP delivered from [src] to [dst]; on [None] its
    header may be read in place.  No record, no pseudo-header, no
    allocation.  The only TCP validation on any receive path. *)

val opening_syn : _ View.t -> bool
(** SYN set, ACK and RST clear: the one segment a stack may hand to
    [Tcp.accept].  Reads a checked header. *)
