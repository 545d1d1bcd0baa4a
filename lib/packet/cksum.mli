(** Internet checksum (RFC 1071) with incremental update (RFC 1624).

    The fast path folds 16-bit words with native big-endian loads and is
    chain-aware: a parity bit carries across windows, so scatter-gather
    chains with odd-length interior segments checksum correctly without
    any pullup or copy.  The [_bytewise] functions are the byte-at-a-time
    reference semantics. *)

val of_view : _ View.t -> int
(** Checksum of a byte window, as a 16-bit value. *)

val of_views : _ View.t list -> int
(** Checksum of the concatenation of several windows (e.g. pseudo-header
    followed by payload, or the segments of an mbuf chain) without
    materializing the concatenation.  Windows of any length compose
    correctly. *)

val of_sub : _ View.t -> off:int -> len:int -> int
(** Checksum of [len] bytes of a window from [off], with no sub-view
    built.  @raise View.Out_of_bounds if the range escapes the window. *)

val of_mbuf : _ Mbuf.t -> int
(** Checksum of an mbuf chain: zero-copy and allocation-free, folded
    segment by segment (see {!fold_mbuf}). *)

val fold_mbuf : int -> _ Mbuf.t -> int
(** [fold_mbuf acc m] accumulates the chain's bytes into a running
    (unfolded) sum, starting on a word boundary, with no list or view
    built.  Seeding [acc] with a pseudo-header sum (e.g.
    [Proto.Ipv4.pseudo_sum]) checksums a UDP or TCP datagram in place;
    {!finish} completes it. *)

val of_view_bytewise : _ View.t -> int
(** Reference implementation: one byte at a time. *)

val of_views_bytewise : _ View.t list -> int
(** Reference implementation over a window list. *)

val valid : _ View.t -> bool
(** True iff the window (which includes its checksum field) sums to zero. *)

val update : cksum:int -> old_w:int -> new_w:int -> int
(** Incrementally adjust [cksum] after a 16-bit word changed from [old_w]
    to [new_w], per RFC 1624. *)

val finish : int -> int
(** Fold a running sum and complement it into a final 16-bit checksum. *)

val fold_words : int -> _ View.t -> int
(** Accumulate a window into a running (unfolded) sum, starting on a word
    boundary. *)
