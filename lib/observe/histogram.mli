(** Log-bucketed latency histogram (HDR-style).

    O(1) record into a fixed ~1K-bucket array: each power-of-two octave
    is split into 16 linear sub-buckets, so quantiles are exact to
    within ~3% relative error while memory stays constant no matter how
    many samples arrive.  Use this on hot paths instead of keeping every
    sample for an exact percentile. *)

type t

val create : unit -> t
val reset : t -> unit

val record : t -> int -> unit
(** Record one non-negative sample (negative values clamp to 0). *)

val count : t -> int
val sum : t -> int
val is_empty : t -> bool

val min_value : t -> int
(** Exact smallest recorded value (0 when empty). *)

val max_value : t -> int
(** Exact largest recorded value (0 when empty). *)

val mean : t -> float
(** Exact mean (sum and count are not bucketed); [nan] when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: the bucket-midpoint value at
    that rank, within ~3% relative error (exact at the min/max edges).
    0 when empty. *)

val p50 : t -> int
val p99 : t -> int
val p999 : t -> int

type snapshot = {
  n : int;
  sum : int;
  vmin : int;
  vmax : int;
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
}

val snapshot : t -> snapshot

val merge : into:t -> t -> unit
(** Add every bucket of the source into [into]. *)

(**/**)

val bucket_of : int -> int
val value_of : int -> int
(** Exposed for property tests of the bucketing error bound. *)

(**/**)
