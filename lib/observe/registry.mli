(** Named metric registry: counters, sampled gauges and log-bucketed
    histograms under dot-separated names.

    One registry per kernel ({!Spin.Kernel.registry}) plus a global one
    for the packet substrate ({!Packet.Metrics.registry}).  Counters are
    bare [int ref]s so hot paths pay one load+store; gauges are sampling
    closures read only at {!snapshot} time; histograms are O(1)-memory
    {!Histogram}s.

    Naming scheme: [<subsystem>.<scope>.<metric>], e.g.
    [spin.udp.PacketRecv.raises] or [dev.hostB.eth0.txq]. *)

type t

type entry =
  | Counter of int ref
  | Gauge of (unit -> int)
  | Hist of Histogram.t

val create : ?name:string -> unit -> t
val name : t -> string

val counter : t -> string -> int ref
(** Find-or-create the named counter; the returned ref {e is} the live
    metric.  @raise Invalid_argument if the name is taken by another
    metric kind. *)

val gauge : t -> string -> (unit -> int) -> unit
(** Register (or replace) a sampled gauge: the closure is called at
    snapshot/export time only.
    @raise Invalid_argument if the name is taken by another kind. *)

val histogram : t -> string -> Histogram.t
(** Find-or-create the named histogram.
    @raise Invalid_argument if the name is taken by another kind. *)

val find : t -> string -> entry option
val mem : t -> string -> bool

val reset : t -> unit
(** Zero every counter and histogram; gauges sample live state and are
    untouched. *)

val merge_into : ?prefix:string -> into:t -> t -> unit
(** [merge_into ?prefix ~into src] folds [src]'s metrics into [into],
    with each name re-rooted as [prefix ^ name].  Counters are summed,
    histograms merged bucket-wise, and gauges stacked into a closure
    summing every merged source.  [src] is not modified.  Used by the
    parallel datapath to merge per-domain registries at snapshot time.
    @raise Invalid_argument on a metric-kind clash at a target name. *)

type sample = Count of int | Level of int | Dist of Histogram.snapshot

val snapshot : t -> (string * sample) list
(** Every metric's current value, sorted by name.  Gauges are sampled
    here. *)

val to_json : t -> string
(** The whole registry as a JSON object.  Every metric exports as a
    tagged object — [{"kind": "counter"|"gauge", "value": n}] or
    [{"kind": "histogram", "n": ..., "p99": ...}] — mirroring the
    counter/gauge distinction the pretty path shows.  Schema documented
    in DESIGN.md. *)

val json_of_sample : sample -> string
(** One sample in the {!to_json} schema. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON literal (used by the other
    observe exporters to stay schema-consistent). *)

val pp : Format.formatter -> t -> unit
(** Human-readable table. *)
