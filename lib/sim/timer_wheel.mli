(** Hierarchical timer wheel.

    A priority queue over non-negative integer keys (nanosecond deadlines)
    with O(1) [add], O(1) true-removal [cancel] and amortised O(1)
    [pop].  Pops are stable: among equal keys, insertion order wins —
    the wheel fires in exactly the same order as {!Pheap} would.

    One record per entry: the {!node} is the bucket link, the key and the
    payload at once.  [pop] returns it unboxed, and pooled entries
    ({!post}) are recycled, so a steady schedule/pop cycle allocates
    nothing.

    The wheel's horizon is the key of the last pop.  Looking ahead
    ({!min_key}, {!peek_min}) does not move it, so any key at or after the
    last popped one is accepted. *)

type 'a t

type 'a node
(** A scheduled entry, usable for cancellation. *)

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills payload slots that hold nothing (sentinels, cancelled
    and released nodes), so a dropped payload is not retained. *)

val live : 'a t -> int
(** Number of entries added but not yet popped or cancelled. *)

val is_empty : 'a t -> bool

val horizon : 'a t -> int
(** Smallest key currently accepted: the key of the last {!pop}.  Only
    moves forward, and only when an entry is popped. *)

val add : 'a t -> key:int -> 'a -> 'a node
(** A fresh entry.  O(1).  @raise Invalid_argument if [key < horizon t]. *)

val post : 'a t -> key:int -> 'a -> unit
(** Like {!add} for an entry nobody will cancel: the record comes from
    the wheel's free stack and returns there on {!release}. *)

val node : 'a t -> 'a node
(** A detached entry with no key, for {!arm}ing again and again. *)

val arm : 'a node -> key:int -> 'a -> unit
(** Schedule a node at [key] with payload [v], moving it if it is live.
    @raise Invalid_argument if [key < horizon]. *)

val cancel : 'a node -> unit
(** O(1) true removal: unlinks the node and drops its payload eagerly so
    the value is not retained until its deadline.  Idempotent. *)

val is_live : 'a node -> bool
(** [true] while the node is scheduled: not yet popped or cancelled. *)

val key : 'a node -> int
val value : 'a node -> 'a

val min_key : 'a t -> int
(** Smallest live key ([max_int] when empty), without moving the
    horizon. *)

val pop : 'a t -> 'a node
(** Unlink and return the earliest live entry, advancing the horizon to
    its key.  Its payload stays readable until {!release}.
    @raise Invalid_argument when empty. *)

val release : 'a node -> unit
(** Drop a popped node's payload; a {!post}ed node returns to the free
    stack and must not be touched again. *)

val peek_min : 'a t -> (int * 'a) option
(** Earliest live entry without removing it or moving the horizon. *)

val pop_min : 'a t -> (int * 'a) option
(** {!pop} and {!release} in one step, boxing the result. *)
