(** Recycled records for queued per-packet work.

    The pattern: a mutable record carries one unit of queued work, and
    the thunk handed to {!Cpu.submit} or {!Engine.post} is a closure over
    the record, built once when the record is.  A site takes a record
    from its stash (building one only when the stash is empty), fills
    it, queues its thunk, and puts the record back when the work comes
    due.  In steady state that allocates nothing; the stash grows to
    the site's peak of work in flight and stops. *)

type 'r t

val create : unit -> 'r t

val is_empty : 'r t -> bool

val take : 'r t -> 'r
(** The most recently put record.
    @raise Invalid_argument when the stash is empty. *)

val put : 'r t -> 'r -> unit
(** Return a record for reuse.  The backing array doubles (from 8) when
    full.  A slot is written only when it holds another record, so the
    take/put cycle of one record costs no write barrier; a slot past the
    top keeps its last record until it is overwritten. *)
