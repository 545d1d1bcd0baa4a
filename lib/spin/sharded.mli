(** A sharded flow-state cache.

    {!Cache} is bounded with CLOCK eviction, for derived state that can
    be rebuilt (the dispatcher's flow-path chains): keys are spread over
    a power-of-two number of shards by hash, and each shard grows and
    evicts on its own. *)

module Cache : sig
  type 'v t

  val create :
    ?shards:int -> ?per_shard:int -> ?evictions:int ref -> unit -> 'v t
  (** Each shard grows geometrically from 8 slots up to [per_shard]
      (default 8192), then evicts CLOCK-style.  [evictions] lets the
      caller supply a registry counter to increment on each eviction. *)

  val find_or : 'v t -> string -> 'v -> 'v
  (** [find_or t key absent] is the value cached under [key], or
      [absent] when there is none; a hit marks the entry recently-used.
      The probe allocates nothing and never stores [key], so a caller
      may pass a scratch buffer's bytes through [Bytes.unsafe_to_string]
      (the dispatcher's signature probe does). *)

  val put : 'v t -> string -> 'v -> unit
  (** Insert or replace; evicts a cold entry when the shard is full. *)

  val remove : 'v t -> string -> unit
  val length : 'v t -> int
  val capacity : 'v t -> int
  val shard_count : 'v t -> int
  val evictions : 'v t -> int
  val reset : 'v t -> unit
end
