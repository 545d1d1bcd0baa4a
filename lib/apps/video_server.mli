(** Network video server (paper section 5.1): 30 fps UDP frame streams
    sourced from disk, environment-agnostic (Plexus or DIGITAL UNIX). *)

type env = {
  engine : Sim.Engine.t;
  read_frame : len:int -> (string -> unit) -> unit;
  send : dst:Proto.Ipaddr.t * int -> string -> unit;
}

type t

val create : env -> fps:int -> frame_len:int -> t
val add_stream : t -> Proto.Ipaddr.t * int -> unit
val set_streams : t -> (Proto.Ipaddr.t * int) list -> unit

val start : ?until:Sim.Stime.t -> t -> unit
(** Begin streaming (staggered per-stream frame clocks) until the
    horizon. *)

val frames_sent : t -> int
