(** Stable binary min-heap keyed by integers.

    The reference oracle the timer-wheel properties check
    {!Sim.Timer_wheel} against.  Entries with equal keys pop in
    insertion order, as the wheel's do. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first). *)

val peek_min : 'a t -> (int * 'a) option
(** Smallest entry without removing it. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the smallest entry. *)

val clear : 'a t -> unit
