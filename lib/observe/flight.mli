(** Packet flight recorder: sampled end-to-end latency timelines.

    A flight endpoint makes deterministic 1-in-N ingress sampling
    decisions, hands out packet ids carried on the mbuf trace word
    ([Packet.Mbuf.mark]), and collects per-stage latency records into a
    bounded ring.  The sampled set is a pure function of [(seed, rate)]
    and arrival ordinals, so a run is reproducible record-for-record.

    One endpoint per kernel (per domain in the parallel datapath);
    merge per-domain rings with {!merge_into} — records keep the domain
    that emitted them, so cross-domain timelines attribute each stage
    to its home domain.  Disabled ([rate = 0]) the recorder costs one
    load + branch per site. *)

type stage =
  | Ingress of { dev : string }
  | Raise of { event : string }
      (** [dur_ns] is latency from ingress to this raise. *)
  | Handler of { event : string; label : string }
      (** [dur_ns] is the handler's modelled run time. *)
  | Queue_wait of { dev : string }
      (** [dur_ns] is time spent in the admission deferral queue. *)
  | Hop of { from_domain : int; to_domain : int }
      (** Cross-domain SPSC ring handoff, emitted by the sender. *)
  | Deliver of { scope : string }
      (** [dur_ns] is end-to-end latency from ingress. *)
  | Drop of { scope : string; reason : string }

type record = {
  pkt : int;  (** packet id, as stamped on the mbuf (always > 0) *)
  domain : int;  (** domain that emitted the record *)
  at_ns : int;  (** that domain's virtual clock at emission *)
  dur_ns : int;  (** stage latency; see per-stage docs *)
  stage : stage;
}

type t

val create : ?capacity:int -> ?rate:int -> seed:int -> unit -> t
(** [capacity] bounds the record ring (default 4096); [rate] is the
    1-in-N sampling rate, 0 (default) meaning disabled. *)

val enabled : t -> bool
(** [rate t > 0].  Every emitter guards on this first. *)

val set_rate : t -> int -> unit
val seed : t -> int
val domain : t -> int

val set_domain : t -> int -> unit
(** Stamp subsequently emitted records with this domain id. *)

val mark_for : seed:int -> rate:int -> int -> int
(** [mark_for ~seed ~rate n] is the sampling decision for arrival
    ordinal [n] (1-based): the packet id ([n]) when sampled, else 0.
    Pure — the parallel datapath pre-computes marks from a frame plan
    so every domain agrees on the sampled set. *)

val admit : t -> int
(** Ingress decision: counts the arrival and returns the mark to stamp
    on the mbuf (0 = not sampled).  Equivalent to
    [mark_for ~seed ~rate seen] after incrementing [seen]. *)

val tally : t -> sampled:bool -> unit
(** Count one arrival whose sampling decision was made out of band
    (the parallel datapath derives marks from the frame plan via
    {!mark_for} instead of {!admit}).  Keeps seen/sampled meaningful
    per domain; totals sum under {!merge_into}. *)

val note : t -> pkt:int -> at_ns:int -> dur_ns:int -> stage -> unit
(** Record one stage for a sampled packet.  Callers guard with
    {!enabled} and [pkt > 0]. *)

val ingress : t -> pkt:int -> at_ns:int -> dev:string -> unit
(** Record the ingress stage and remember the arrival timestamp for
    {!since_ingress}. *)

val origin : t -> pkt:int -> int option
(** Ingress timestamp for a live sampled packet, if known. *)

val since_ingress : t -> pkt:int -> at_ns:int -> int
(** Latency from ingress to [at_ns] (0 when the origin is unknown). *)

val finish : t -> pkt:int -> unit
(** Forget the ingress timestamp (call at delivery/drop). *)

val seen : t -> int
val sampled : t -> int
val length : t -> int

val dropped : t -> int
(** Records overwritten after the ring wrapped. *)

val records : t -> record list
(** Oldest retained record first. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s records (and seen/sampled/dropped totals) into [into],
    preserving each record's home domain. *)

val timelines : record list -> (int * record list) list
(** Group records per packet id (ascending); each packet's records keep
    emission order.  Cross-domain clocks are incomparable, so no
    timestamp sort is attempted. *)

val stage_name : stage -> string
val pp_record : Format.formatter -> record -> unit
val pp_timeline : Format.formatter -> int * record list -> unit
val to_json : t -> string
