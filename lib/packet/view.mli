(** Safe, zero-copy typed access to packet bytes.

    This module reproduces the role of the paper's [VIEW] operator
    (section 3.2): protocol code must interpret "an array of bytes in a
    device buffer" as structured headers without copying and without the
    possibility of unsafe memory access.  A {!t} is a bounds-checked window
    onto a byte buffer; every accessor validates its offset and width.

    The ['perm] phantom type parameter carries the access permission:
    [ro t] values cannot be written through, mirroring Modula-3's
    [READONLY] packets in Figure 4 of the paper.  The restriction is
    enforced by the OCaml type checker — passing an [ro] view to a setter
    is a compile-time error. *)

type ro = [ `Ro ]
type rw = [ `Rw ]

type 'perm t
(** A window onto a byte buffer with permission ['perm]. *)

exception Out_of_bounds of { index : int; width : int; length : int }
(** Raised by any access that would escape the window. *)

val of_bytes : off:int -> len:int -> Bytes.t -> rw t
(** View [len] bytes of a buffer from [off], writable.  The labels are
    mandatory: an optional one would box its value in [Some] at every
    call that inlining does not reach (mbuf header pushes make one per
    layer per packet).
    @raise Invalid_argument if the window exceeds the buffer. *)

val of_string : string -> ro t
(** Read-only view of a string's bytes (copies once into a buffer). *)

val create : int -> rw t
(** Fresh zero-filled buffer of the given length. *)

val length : _ t -> int

val ro : _ t -> ro t
(** Forget write permission.  Zero-cost; the underlying bytes are shared. *)

val sub : 'p t -> off:int -> len:int -> 'p t
(** Narrow the window.  @raise Out_of_bounds on escape. *)

val shift : 'p t -> int -> 'p t
(** [shift v n] drops the first [n] bytes (e.g. to step past a header). *)

(** {1 Big-endian (network order) accessors} *)

val get_u8 : _ t -> int -> int
val get_u16 : _ t -> int -> int
val get_u32 : _ t -> int -> int
val get_string : _ t -> off:int -> len:int -> string
val to_string : _ t -> string

val set_u8 : rw t -> int -> int -> unit
val set_u16 : rw t -> int -> int -> unit
val set_u32 : rw t -> int -> int -> unit
val set_string : rw t -> off:int -> string -> unit

val blit_string :
  src:string -> dst:rw t -> src_off:int -> dst_off:int -> len:int -> unit
(** Write [len] bytes of [src] from [src_off] into the window at
    [dst_off].  @raise Invalid_argument if the range escapes [src]. *)

val blit : src:_ t -> dst:rw t -> src_off:int -> dst_off:int -> len:int -> unit

val blit_to_bytes :
  src:_ t -> src_off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes of the window from [src_off] into a plain buffer at
    [dst_off] (counted like {!blit}): how a reader keeps bytes it was
    lent.  @raise Invalid_argument if the range escapes [dst]. *)

val fill : rw t -> char -> unit

val copy : _ t -> rw t
(** Explicit copy — the only way to obtain a writable version of read-only
    data (the paper's copy-on-write discipline). *)

val fold_u8 : ('a -> int -> 'a) -> 'a -> _ t -> 'a
(** Fold over the bytes of the window. *)

val pp : Format.formatter -> _ t -> unit
(** Hex dump (truncated) for debugging. *)

(**/**)

val unsafe_data : _ t -> Bytes.t
val unsafe_off : _ t -> int

val unsafe_cast : _ t -> 'p t
(** Permission cast for trusted substrate code (mbuf internals).  Never use
    from protocol or extension code. *)
