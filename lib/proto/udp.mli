(** UDP codec with optional checksum.

    Disabling the checksum is the paper's section 1.1 example of a
    legitimate application-specific protocol change. *)

val header_len : int

type header = { src_port : int; dst_port : int; len : int; cksum : int }

(** Field byte offsets within the header: the one declaration of its
    layout, shared by {!parse}, {!push} and the accessors. *)
module Off : sig
  val src_port : int
  val dst_port : int
  val len : int
  val cksum : int
end

val parse : _ View.t -> header option

(** {1 In-place access}

    Read one field where it lies, with one bounds check and no
    record.  [has_header v] holds exactly when [parse v] is [Some _]; a
    getter on a shorter view raises [View.Out_of_bounds]. *)

val has_header : _ View.t -> bool
val get_src_port : _ View.t -> int
val get_dst_port : _ View.t -> int
val get_len : _ View.t -> int
val get_cksum : _ View.t -> int

val compute_cksum : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> int
(** Checksum of a full datagram view whose checksum field is zero. *)

val push :
  Mbuf.rw Mbuf.t -> checksum:bool -> src:Ipaddr.t -> dst:Ipaddr.t ->
  src_port:int -> dst_port:int -> unit
(** Prepend a UDP header to a payload packet, written in place.
    [~checksum:false] writes a zero checksum ("no checksum" per RFC 768).
    Every label is mandatory, so the send path's call allocates nothing
    whether or not it is inlined. *)

val encapsulate :
  ?checksum:bool -> Mbuf.rw Mbuf.t -> src:Ipaddr.t -> dst:Ipaddr.t ->
  src_port:int -> dst_port:int -> unit
(** {!push} with the checksum on by default. *)

val max_payload : int
(** 65,507: the data one IPv4 datagram can carry.  Every stack's send
    refuses more with [Invalid_argument] before queueing anything. *)

(** Why a receiver refuses a datagram. *)
type drop =
  | Runt  (** shorter than a header *)
  | Bad_length  (** length field ≠ the bytes IP delivered *)
  | Bad_checksum  (** a nonzero checksum that does not verify *)

val drop_name : drop -> string

val check : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> drop option
(** Validate a datagram view (header + payload) IP delivered from [src]
    to [dst]; on [None] its ports may be read in place.  No record, no
    pseudo-header, no allocation. *)

