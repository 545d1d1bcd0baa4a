(** Ethernet framing. *)

module Mac : sig
  type t = private int

  val broadcast : t

  val none : t
  (** Not an address (outside the 48-bit range): what an
      allocation-free lookup returns on a miss. *)

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

val etype_ip : int
val etype_arp : int

val etype_active_message : int
(** The EtherType the active-message extension demultiplexes on, as in the
    paper's Figure 2 guard. *)

val header_len : int

val min_frame : int
(** Minimum frame length (60 bytes before the FCS); short frames are
    padded on the wire. *)

val crc_len : int

type header = { dst : Mac.t; src : Mac.t; etype : int }

(** Field byte offsets within the header: the one declaration of its
    layout, shared by {!parse}, {!write} and the accessors. *)
module Off : sig
  val dst : int
  val src : int
  val etype : int
end

val parse : _ View.t -> header option
(** Decode the header at the start of the view; [None] if too short. *)

val write : View.rw View.t -> header -> unit

(** {1 In-place access}

    Read one field where it lies, with one bounds check and no
    record.  [has_header v] holds exactly when [parse v] is [Some _]; a
    getter on a shorter view raises [View.Out_of_bounds]. *)

val has_header : _ View.t -> bool
val get_dst : _ View.t -> Mac.t
val get_src : _ View.t -> Mac.t
val get_etype : _ View.t -> int

val push : Mbuf.rw Mbuf.t -> dst:Mac.t -> src:Mac.t -> etype:int -> unit
(** Prepend an Ethernet header, written field by field. *)

val encapsulate : Mbuf.rw Mbuf.t -> header -> unit
(** {!push} from a header record. *)

val pp_header : Format.formatter -> header -> unit

val get_u48 : _ View.t -> int -> int
(** Read a 48-bit big-endian field (MAC addresses, also used by ARP). *)

val set_u48 : View.rw View.t -> int -> int -> unit
