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

val run : ?bytes:int -> unit -> row list
val print : ?bytes:int -> unit -> row list
