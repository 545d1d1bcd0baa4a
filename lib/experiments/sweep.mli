(** Latency vs. message size sweep (companion to Figure 5). *)

type point = { size : int; plexus_us : float; du_us : float }
type row = { device : string; points : point list }

val print : ?iters:int -> unit -> row list
