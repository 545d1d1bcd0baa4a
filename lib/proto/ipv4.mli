(** IPv4 header codec and helpers. *)

val header_len : int
val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type header = {
  tos : int;
  total_len : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** in 8-byte units *)
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

val make :
  ?tos:int -> ?id:int -> ?dont_fragment:bool -> ?more_fragments:bool ->
  ?frag_offset:int -> ?ttl:int -> proto:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  payload_len:int -> unit -> header

(** Field byte offsets within the header: the one declaration of its
    layout, shared by {!parse}, {!write} and the accessors. *)
module Off : sig
  val vihl : int
  val tos : int
  val total_len : int
  val id : int
  val flags_frag : int
  val ttl : int
  val proto : int
  val cksum : int
  val src : int
  val dst : int
end

val parse : _ View.t -> header option
(** Decode the header at the start of the view, [Some] exactly when
    {!has_header}.  A codec, not a validator: receivers use {!check}. *)

val read : _ View.t -> header
(** {!parse} without the option, for a view that {!has_header}. *)

val write : View.rw View.t -> header -> unit
(** Encode the header, computing its checksum. *)

(** {1 In-place access}

    Read one field where it lies, with one bounds check and no record.
    [has_header v] holds exactly when [parse v] is [Some _]; a getter on
    a shorter view raises [View.Out_of_bounds]. *)

val has_header : _ View.t -> bool
val get_tos : _ View.t -> int
val get_total_len : _ View.t -> int
val get_id : _ View.t -> int

val get_flags_frag : _ View.t -> int
(** The raw flags/fragment-offset word (DF 0x4000, MF 0x2000, offset in
    the low 13 bits). *)

val get_ttl : _ View.t -> int
val get_proto : _ View.t -> int
val get_src : _ View.t -> Ipaddr.t
val get_dst : _ View.t -> Ipaddr.t

val checksum_valid : _ View.t -> bool

val max_payload : int
(** 65,515: the payload a 16-bit total length can carry. *)

(** Why a receiver refuses a datagram. *)
type drop =
  | Runt  (** shorter than a header *)
  | Bad_header  (** not version 4, or IHL other than 5 *)
  | Bad_checksum
  | Not_ours  (** addressed to neither the host nor 255.255.255.255 *)
  | Bad_length  (** [total_len] outside [[20, bytes received]] *)
  | Bad_fragment  (** a bad fragment train; see [Ip_frag.receive] *)

val drop_name : drop -> string
(** The reason as a span label: ["runt"], ["bad_header"], ... *)

val check : host:Ipaddr.t -> _ View.t -> drop option
(** The first reason, in the order above, to refuse the datagram at the
    start of the view as [host]; [None] when it may be sliced up to its
    [total_len].  Reads in place and allocates nothing. *)

val push :
  Mbuf.rw Mbuf.t -> id:int -> more_fragments:bool -> frag_offset:int ->
  proto:int -> src:Ipaddr.t -> dst:Ipaddr.t -> unit
(** Prepend an IP header (TOS 0, default TTL, DF clear) written field by
    field, with no header record. *)

val encapsulate : Mbuf.rw Mbuf.t -> header -> unit
(** Prepend an IP header to a payload packet. *)

val pseudo_sum : src:Ipaddr.t -> dst:Ipaddr.t -> proto:int -> len:int -> int
(** The UDP/TCP checksum pseudo-header as a running sum, to seed
    [Cksum.fold_words] or [Cksum.fold_mbuf]. *)

