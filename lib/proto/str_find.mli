(** Substring search helper. *)

val find_sub : string -> string -> int
(** [find_sub s sub] is the index of the first occurrence of [sub] in
    [s], or [-1] if there is none.  Allocates nothing. *)
