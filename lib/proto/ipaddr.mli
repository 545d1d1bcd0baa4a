(** IPv4 addresses. *)

type t = private int

val v : int -> int -> int -> int -> t
(** [v a b c d] is the address [a.b.c.d]. *)

val broadcast : t
val any : t
val of_int : int -> t
val to_int : t -> int
val of_string : string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val in_subnet : t -> net:t -> mask_bits:int -> bool
