(** Bounded packet-buffer pools (the kernel's mbuf budget).

    A reservation fails — and is counted — when the pool is exhausted;
    receive paths use this to shed load instead of growing without
    bound.  Buffer {e memory} is recycled by {!Mbuf}'s free list; a pool
    accounts budget {e slots}, which a receive ring claims with
    {!reserve} when a frame arrives and gives back with {!release} when
    the frame is serviced. *)

type t

val create : ?name:string -> capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val reserve : t -> bool
(** Claim a budget slot without allocating a buffer.  [false] (counted as
    a failure) when the pool is exhausted. *)

val release : t -> unit
(** Give a budget slot back.
    @raise Invalid_argument on underflow (a slot released twice — the
    double free is also counted, see {!underflows}). *)

val reserve_n : t -> int -> int
(** [reserve_n t n] claims up to [n] slots with one bounds check and one
    counter update, returning how many were granted; the shortfall is
    counted as failures.  Batched receive paths use this to amortize
    slot accounting across a burst.
    @raise Invalid_argument if [n < 0]. *)

val release_n : t -> int -> unit
(** Give [n] slots back at once.
    @raise Invalid_argument on underflow or [n < 0]. *)

val live : t -> int
val failures : t -> int

val peak : t -> int
(** High-water mark of live buffers. *)

val underflows : t -> int
(** Number of detected double frees / slot underflows. *)

val set_pressure : t -> ?hi:float -> ?lo:float -> (bool -> unit) -> unit
(** Subscribe to occupancy watermarks: the callback fires with [true]
    when live occupancy first reaches [hi] (fraction of capacity,
    default 0.75) and with [false] once it falls back to [lo] (default
    0.5).  The gap is hysteresis — a consumer hovering at one boundary
    sees one notification, not a flap per frame.  Receive paths use this
    to start shedding {e before} the pool is exhausted and would drop
    silently.  @raise Invalid_argument unless [0 <= lo <= hi <= 1] and
    [hi > 0]. *)

val pressured : t -> bool
(** Currently above the high watermark (and not yet back below low). *)

val pressure_events : t -> int
(** How many times the pool entered the pressured state. *)
