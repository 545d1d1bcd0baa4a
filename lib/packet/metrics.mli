(** Global datapath copy/allocation accounting.

    Tests and benches use these counters to *prove* zero-copy claims:
    reset, drive a path, assert.  [copies]/[bytes_copied] count every
    payload-byte copy made by the packet substrate (mbuf flattening,
    [View.copy], [View.blit], string marshalling); [allocs] counts fresh
    segment-buffer allocations (GC pressure); [recycled] counts buffers
    satisfied from the mbuf free list instead. *)

type snapshot = {
  copies : int;
  bytes_copied : int;
  allocs : int;
  recycled : int;
}

val snapshot : unit -> snapshot
val reset : unit -> unit

val registry : Observe.Registry.t
(** The process-global packet registry; the refs below are its
    [packet.*] counters, so registry snapshots and direct ref reads
    always agree. *)

val copies : int ref
val bytes_copied : int ref
val allocs : int ref
val recycled : int ref

(**/**)

(* Counting hooks for the packet substrate itself. *)
val count_copy : int -> unit
val count_alloc : unit -> unit
val count_recycle : unit -> unit

(**/**)
