(** Video client: checksum + decompress + framebuffer display. *)

type t

val on_plexus : ?fps:int -> Plexus.Stack.t -> port:int -> t
(** Install as a Plexus UDP endpoint handler.  [fps] enables deadline
    tracking (a frame is late past 1.5x the period — "when the server
    would fail to meet its deadline"). *)

val on_du : ?fps:int -> Osmodel.Du_stack.t -> port:int -> t
(** Run as a DIGITAL UNIX user process on a UDP socket. *)

val deadline_misses : t -> int
val jitter : t -> float
(** Mean inter-frame arrival time in µs; [nan] before the second
    frame. *)

val frames_received : t -> int
val frames_displayed : t -> int
val bytes_received : t -> int
val framebuffer : t -> Netsim.Framebuffer.t
