(** IP fragmentation and reassembly.

    Fragmentation is zero-copy: fragments are {!Mbuf.sub} sub-chains
    sharing the datagram's buffers.  Reassembly copies each payload byte
    exactly once, into the completed datagram. *)

val fragment : mtu:int -> 'p Mbuf.t -> (int * bool * 'p Mbuf.t) list
(** [fragment ~mtu payload] is a list of
    [(frag_offset_in_8B_units, more_fragments, sub_chain)] covering
    [payload], each fitting in [mtu] with an IP header.  No payload byte
    is copied; the caller keeps ownership of [payload].
    @raise Invalid_argument if the MTU cannot carry 8 payload bytes. *)

type t
(** Reassembly state, keyed by (src, dst, proto, id). *)

val create : ?timeout:Sim.Stime.t -> unit -> t

type outcome =
  | Pending  (** the train is still incomplete *)
  | Complete of Mbuf.rw Mbuf.t  (** the reassembled datagram *)
  | Malformed
      (** a chunk overlapped another or ran past the train's total
          length: the whole train was dropped *)

val input : t -> now:Sim.Stime.t -> Ipv4.header -> _ View.t -> outcome
(** Feed a fragment's payload (or a whole datagram).  A train completes
    only when its chunks tile [[0, total)] exactly; an exact duplicate
    chunk is ignored.  Chunk views are held until completion, so they
    must remain valid that long (the receive path keeps arriving frames
    alive).  Stale contexts are expired lazily against [now]. *)

val expire : t -> now:Sim.Stime.t -> int
(** Drop every pending reassembly whose deadline has passed, returning
    how many were expired (also counted in {!timeout_count}).  Called
    lazily by {!input}; callers that must bound how long a stalled
    fragment train pins its buffers (the chunks reference arriving
    frames) schedule it from a timer — see [Ip_mgr]. *)

val next_deadline : t -> Sim.Stime.t option
(** The earliest deadline among pending reassemblies, or [None] when
    nothing is pending — the instant a periodic expirer should arm its
    next one-shot timer for. *)

val pending_count : t -> int
val reassembled_count : t -> int
val timeout_count : t -> int
