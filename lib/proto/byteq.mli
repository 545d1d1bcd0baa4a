(** Byte FIFO with random-access reads (TCP send buffer). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> string -> unit
(** Append bytes at the tail.  The string is kept, not copied. *)

val blit : t -> off:int -> len:int -> View.rw View.t -> dst_off:int -> unit
(** [blit t ~off ~len dst ~dst_off] writes the [len] bytes that start
    [off] bytes after the head into [dst] at [dst_off], without
    consuming them.  The only read of the queue.
    @raise Invalid_argument beyond the tail. *)

val drop : t -> int -> unit
(** Discard bytes from the head. *)

val clear : t -> unit
