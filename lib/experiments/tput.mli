(** Section 4.2: TCP throughput table. *)

type row = {
  device : string;
  plexus_mbps : float;
  du_mbps : float;
  paper_plexus : float option;
  paper_du : float option;
  gap_p50_us : float;
      (** median gap between successive chunk arrivals at the Plexus
          sink, microseconds *)
  gap_p99_us : float;
}

val plexus_transfer : ?bytes:int -> Netsim.Costs.device -> float
(** Goodput of a bulk Plexus TCP transfer, Mb/s. *)

val plexus_transfer_timed :
  ?bytes:int -> Netsim.Costs.device -> float * Sim.Stats.Histogram.t
(** Goodput plus the chunk-arrival gap distribution (nanoseconds),
    recorded into a log-bucketed {!Sim.Stats.Histogram}, since a bulk
    transfer delivers an unbounded number of chunks. *)

val du_transfer : ?bytes:int -> Netsim.Costs.device -> float

val run : ?bytes:int -> unit -> row list
val print : ?bytes:int -> unit -> row list
