(** Figure 6: video server CPU utilization vs. number of streams (T3). *)

type sample = {
  streams : int;
  spin_util : float;
  du_util : float;
  net_mbps : float;
}

type client_sample = {
  c_streams : int;
  plexus_util : float;
  du_util : float;
  plexus_fb_share : float;
}

val client : ?streams:int -> unit -> client_sample
(** The §5.1 client-side finding: similar utilization on both systems,
    dominated by framebuffer writes. *)

val run : ?stream_counts:int list -> unit -> sample list
val print : ?stream_counts:int list -> unit -> sample list
