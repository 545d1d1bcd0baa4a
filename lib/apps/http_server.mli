(** HTTP/1.0 server as a Plexus extension (the paper's closing demo). *)

type t

val create : ?port:int -> ?routes:(string, string) Hashtbl.t -> Plexus.Stack.t -> t
(** Listen on the stack's TCP manager directly. *)

val extension :
  ?port:int -> ?routes:(string, string) Hashtbl.t -> name:string -> unit ->
  t * Spin.Extension.t
(** The same server as a signed extension whose initializer installs the
    listener through the imported Tcp interface; unlinking removes it. *)

val add_route : t -> string -> string -> unit
val requests : t -> int
val not_found_count : t -> int
