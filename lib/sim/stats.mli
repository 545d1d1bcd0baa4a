(** Running means, exact percentiles and log-bucketed
    histograms for experiment measurement. *)

module Histogram = Observe.Histogram
(** Log-bucketed latency histogram: O(1) record, O(1) memory,
    quantiles within ~3% relative error.  Use it wherever sample counts
    are unbounded (hot paths, long-running workloads). *)

module Mean : sig
  type t
  (** A running mean of durations: a count and an exact sum, no
      samples. *)

  val create : unit -> t
  val add : t -> Stime.t -> unit

  val us : t -> float
  (** The mean in microseconds; [nan] when nothing was added. *)
end

val percentile : float array -> float -> float
(** [percentile samples p] for [p] in [0..100]: the exact percentile
    with linear interpolation between neighbouring ranks; [nan] when
    [samples] is empty.  Sorts a copy, so [samples] is left as is. *)
