(** A bounded, string-keyed CLOCK cache for derived state that can be
    rebuilt (the dispatcher's flow-path chains).  It grows geometrically
    from 8 slots up to its capacity, then evicts CLOCK-style: one cold
    entry per insert, never the whole cache. *)

type 'v t

val create : capacity:int -> ?evictions:int ref -> unit -> 'v t
(** A cache that doubles from 8 slots until it has at least [capacity]
    (a power of two is reached exactly), then evicts.  [evictions] lets
    the caller supply a registry counter to increment on each
    eviction. *)

val find_or : 'v t -> string -> 'v -> 'v
(** [find_or t key absent] is the value cached under [key], or
    [absent] when there is none; a hit marks the entry recently-used.
    The probe allocates nothing and never stores [key], so a caller
    may pass a scratch buffer's bytes through [Bytes.unsafe_to_string]
    (the dispatcher's signature probe does). *)

val put : 'v t -> string -> 'v -> unit
(** Insert or replace; evicts a cold entry when the cache is full. *)

val remove : 'v t -> string -> unit
val length : 'v t -> int
val capacity : 'v t -> int
val evictions : 'v t -> int
