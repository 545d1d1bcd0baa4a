(* Global datapath accounting.

   The paper's data-movement claim is structural: packets move through
   the protocol graph as read-only mbuf chains and are *not* copied on
   the common path (section 3.4).  These counters make that claim
   checkable — benches and tests reset them, drive a path, and assert
   "zero copies here".  Every payload-byte copy in the packet substrate
   (mbuf flatten/copy, view copy/blit) and every fresh segment-buffer
   allocation is counted; recycled buffers drawn from the free list are
   counted separately so allocation pressure on the GC is visible. *)

(* The counters live in a process-global Observe registry; the refs
   exposed here ARE the registry's — asserting on [!Metrics.copies] and
   snapshotting the registry read the same cell. *)
let registry = Observe.Registry.create ~name:"packet" ()
let copies = Observe.Registry.counter registry "packet.copies"
let bytes_copied = Observe.Registry.counter registry "packet.bytes_copied"

(* fresh Bytes.t segment buffers *)
let allocs = Observe.Registry.counter registry "packet.allocs"

(* buffers satisfied from the free list *)
let recycled = Observe.Registry.counter registry "packet.recycled"

let count_copy n =
  incr copies;
  bytes_copied := !bytes_copied + n

let count_alloc () = incr allocs
let count_recycle () = incr recycled

let reset () =
  copies := 0;
  bytes_copied := 0;
  allocs := 0;
  recycled := 0

type snapshot = {
  copies : int;
  bytes_copied : int;
  allocs : int;
  recycled : int;
}

let snapshot () =
  {
    copies = !copies;
    bytes_copied = !bytes_copied;
    allocs = !allocs;
    recycled = !recycled;
  }
