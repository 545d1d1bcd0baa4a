(** Figure 5: UDP round-trip latency across the three devices. *)

type row = {
  device : string;
  plexus_interrupt : float;
  plexus_thread : float;
  digital_unix : float;
  user_library : float;
  raw_driver : float;
  paper_plexus : float option;
}

val run : ?iters:int -> unit -> row list

val print : ?iters:int -> unit -> row list
