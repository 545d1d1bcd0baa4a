(** Sharded flow-state containers.

    Keys are spread over a power-of-two number of shards by hash — the
    same partition that multicore sharding (ROADMAP item 2) pins to
    domains.  {!Table} is unbounded, for state that must not be dropped
    (connections, binds).  {!Cache} is bounded with CLOCK eviction, for
    derived state that can be rebuilt (flow-path chains). *)

module Table : sig
  type ('k, 'v) t

  val create : ?shards:int -> hash:('k -> int) -> unit -> ('k, 'v) t
  (** [shards] is rounded up to a power of two (default 16). *)

  val find_opt : ('k, 'v) t -> 'k -> 'v option
  val mem : ('k, 'v) t -> 'k -> bool
  val replace : ('k, 'v) t -> 'k -> 'v -> unit
  val remove : ('k, 'v) t -> 'k -> unit
  val length : ('k, 'v) t -> int
  val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
  val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
  val reset : ('k, 'v) t -> unit
  val shard_count : ('k, 'v) t -> int

  val max_shard_size : ('k, 'v) t -> int
  (** Occupancy of the fullest shard — a skew indicator. *)
end

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
