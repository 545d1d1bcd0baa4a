(** Packet buffers (mbufs) with read-only views.

    Plexus passes packets through the protocol graph as mbufs (paper,
    section 3.4, footnote 1) and relies on the language's [READONLY]
    qualifier to prevent handlers from modifying shared packets.  Here the
    same guarantee comes from the ['perm] phantom parameter: a handler
    holding an [ro t] cannot call any mutating operation — the program does
    not type-check, exactly like [BadPacketRecv] in the paper's Figure 4.

    An mbuf is a chain of segments with headroom, so pushing a header with
    {!prepend} is O(1) and copy-free on the common path.  Segments are
    windows onto ref-counted buffers: {!sub} carves zero-copy sub-chains
    (fragmentation), {!take} transfers whole chains between owners
    (transmit), and a buffer's bytes return to a size-classed free list
    when its last reference drops, so steady traffic recycles buffers
    instead of allocating.  All payload copies and buffer allocations made
    by this module are counted in {!Metrics}. *)

type ro = [ `Ro ]
type rw = [ `Rw ]

type 'perm t
(** A packet buffer with access permission ['perm]. *)

val alloc : ?headroom:int -> int -> rw t
(** [alloc n] is a zero-filled packet of [n] bytes with header headroom
    (default 64 bytes).  The segment buffer is drawn from the free list
    when a suitable one is available. *)

val of_string : string -> rw t

val free : _ t -> unit
(** Drop the chain's references; buffers whose last reference this was
    return to the free list.  @raise Invalid_argument on double free, or
    on a frame that is still held. *)

val hold : _ t -> unit
(** Lease the frame: it stays valid until the matching {!release}.  A
    received frame is held by whoever has work queued on it — the
    driver top half around its raise, the dispatcher for each queued
    demux and delivery, a pending reassembly for its fragments — so
    code that keeps its bytes past its own run must copy them or take
    a hold of its own.  @raise Invalid_argument on a freed frame. *)

val release : _ t -> unit
(** End one {!hold}; the last release {!free}s the frame.
    @raise Invalid_argument on a frame that is freed or not held. *)

val stats : unit -> int * int
(** [(total_allocations, live)] since the last {!reset_stats}. *)

val total_allocated : unit -> int
(** Allocation-free read of the total-allocations counter (the
    dispatcher's per-handler ledger samples this around every run). *)

val reset_stats : unit -> unit

val drain_freelist : unit -> unit
(** Empty the recycling free list (for deterministic tests/benches). *)

val length : _ t -> int

val num_segs : _ t -> int
(** O(1): the segment count is cached. *)

val is_empty : _ t -> bool

val mark : _ t -> int
(** The flight-recorder trace word: 0 (the default) means untraced,
    any other value is the sampled packet id stamped at ingress.
    Metadata, not payload — it is carried across {!take}, {!sub},
    {!copy_rw} and {!sub_copy} but never serialised to the wire. *)

val set_mark : _ t -> int -> unit
(** Stamp the trace word.  Permitted on read-only mbufs: the mark is
    out-of-band metadata, not packet bytes. *)

val ro : _ t -> ro t
(** Forget write permission (zero-cost, shares the bytes).  This is what a
    protocol layer does before raising a [PacketRecv] event. *)

val copy_rw : _ t -> rw t
(** Deep copy with write permission — the explicit copy-on-write of the
    paper's [GoodPacketRecv]. *)

val view : 'p t -> 'p View.t
(** A view of the packet's bytes.  If the chain has several segments they
    are first made contiguous (copying); call {!pullup} to bound how much
    must be contiguous instead. *)

val views : 'p t -> 'p View.t list
(** Per-segment views, zero-copy (for checksumming chains). *)

val pullup : _ t -> int -> unit
(** [pullup t n] ensures the first segment holds at least [n] contiguous
    bytes, copying only if needed (BSD [m_pullup]). *)

val prepend : rw t -> int -> View.rw View.t
(** [prepend t n] grows the packet by [n] bytes at the front — O(1) and
    allocation-free when headroom suffices and the first segment's buffer
    is not shared — and returns a writable view of the new (zeroed)
    header region. *)

val extend_back : rw t -> int -> View.rw View.t
(** Grow the packet at the tail, returning a view of the new region.
    O(1) amortized (reversed-tail representation). *)

val trim_front : rw t -> int -> unit
(** Drop [n] bytes from the front (e.g. stepping past a header on input).
    Fully-consumed segments release their buffer references. *)

val trim_back : rw t -> int -> unit

val concat : rw t -> rw t -> unit
(** [concat a b] moves all of [b]'s segments to the end of [a] without
    copying; [b] becomes empty.  O(|b|), independent of [a]'s length. *)

val sub : 'p t -> off:int -> len:int -> 'p t
(** Zero-copy sub-chain: shares the underlying buffers (ref-counted), no
    payload byte moves.  A writable sub-chain of a writable parent is for
    trusted composition code (e.g. fragmentation) — writes through it are
    visible to the parent, but headroom/tailroom growth on shared buffers
    automatically falls back to fresh segments. *)

val take : 'p t -> 'p t
(** Ownership transfer: returns a chain holding all of [t]'s segments and
    empties [t].  The device uses this to consume a frame at transmit
    time, so the sender cannot scribble on bytes already on the wire. *)

val sub_copy : _ t -> off:int -> len:int -> rw t
(** Copy of a byte range as a fresh packet. *)

val to_string : _ t -> string
val equal : _ t -> _ t -> bool
val pp : Format.formatter -> _ t -> unit

(**/**)

val unsafe_fold_segs : ('a -> Bytes.t -> int -> int -> 'a) -> 'a -> _ t -> 'a
(** [unsafe_fold_segs f acc t] folds [f acc data off len] over the
    chain's segment windows in order, allocating nothing.  For trusted
    packet-library code (the checksum); never use from protocol or
    extension code. *)
