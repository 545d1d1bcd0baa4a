(* Berkeley-style packet buffers (mbufs), the packet representation Plexus
   uses to move data through the protocol graph (paper section 3.4).

   An mbuf is a chain of segments; each segment is a window onto a
   ref-counted byte buffer (a [store]) with headroom in front so that
   protocol layers can prepend headers without copying.  Stores are
   shared: [sub] carves a zero-copy sub-chain out of an existing chain
   (fragmentation), and [take] transfers a whole chain between owners
   (the driver handing a frame across the simulated wire).  A store's
   bytes return to a size-classed free list when its last reference is
   dropped, so steady-state traffic recycles buffers instead of leaking
   them to the GC.

   The ['perm] phantom type parameter mirrors the paper's READONLY
   discipline: handlers receive [ro] mbufs and the type checker rejects
   writes through them; a writable copy must be made explicitly with
   [copy_rw] (Figure 4's explicit copy-on-write). *)

type store = { data : Bytes.t; mutable refs : int; cls : int }
(* [cls] is the free-list size class, or -1 for unpooled (oversized)
   buffers that go back to the GC. *)

type seg = { store : store; mutable off : int; mutable len : int }

(* Segments are a deque: [front] in order, [back] reversed, so both
   [extend_back] and [concat] append in O(1)/O(|donor|) instead of the
   O(n^2) of repeated list append.  [nsegs] caches the count. *)
type raw = {
  mutable front : seg list;
  mutable back : seg list; (* reversed *)
  mutable total : int;
  mutable nsegs : int;
  mutable holds : int;
      (* the lease: -1 once freed, else the number of outstanding
         {!hold}s (0 = not leased; whoever has the frame owns it) *)
  mutable mark : int;
      (* flight-recorder trace word: 0 = untraced, otherwise the sampled
         packet id.  Metadata, not payload — it rides along [take] and
         [sub] so a sampled frame keeps its identity across ownership
         transfer and fragmentation, but never touches the wire bytes. *)
}

type ro = [ `Ro ]
type rw = [ `Rw ]
type 'perm t = raw

let default_headroom = 64

(* ---- the recycling free list ---------------------------------------- *)

(* Size classes cover the traffic the experiments generate: small
   control frames, MTU-sized frames (1500 + headroom), and the 12.5 KB
   video datagrams.  Requests above the largest class are served by the
   GC directly (cls = -1). *)
let classes = [| 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 |]
let max_freelist_depth = 512

(* The free lists are domain-local (one recycling pool per OCaml domain,
   via [Domain.DLS]): the parallel datapath runs one packet-processing
   stack per domain, and a shared pool would let two domains pop the
   same buffer — silent payload aliasing.  Domain-locality also means a
   buffer freed on a worker is recycled by that worker, which is the
   per-domain mbuf-pool model the multicore datapath wants anyway.
   Single-domain programs see exactly the old behaviour.

   Each class is a preallocated stack of whole store records, so
   freeing and reusing a buffer allocates nothing. *)
type freelist_state = {
  freelists : store array array;
  freelist_depths : int array;
}

let no_store = { data = Bytes.empty; refs = 0; cls = -1 }

let freelist_key =
  Stdlib.Domain.DLS.new_key (fun () ->
      {
        freelists =
          Array.init (Array.length classes) (fun _ ->
              Array.make max_freelist_depth no_store);
        freelist_depths = Array.make (Array.length classes) 0;
      })

let class_of size =
  let n = Array.length classes in
  let rec go i = if i >= n then -1 else if classes.(i) >= size then i else go (i + 1) in
  go 0

(* Drains the *calling domain's* free lists. *)
let drain_freelist () =
  let fl = Stdlib.Domain.DLS.get freelist_key in
  Array.iter (fun st -> Array.fill st 0 max_freelist_depth no_store) fl.freelists;
  Array.fill fl.freelist_depths 0 (Array.length fl.freelist_depths) 0

(* Allocate a store of at least [size] usable bytes, recycling a
   free-listed buffer of the right class when one is available. *)
let alloc_store size =
  let cls = class_of size in
  if cls >= 0 then begin
    let fl = Stdlib.Domain.DLS.get freelist_key in
    let depth = fl.freelist_depths.(cls) in
    if depth > 0 then begin
      let stack = fl.freelists.(cls) in
      let store = stack.(depth - 1) in
      stack.(depth - 1) <- no_store;
      fl.freelist_depths.(cls) <- depth - 1;
      Metrics.count_recycle ();
      store.refs <- 1;
      store
    end
    else begin
      Metrics.count_alloc ();
      { data = Bytes.create classes.(cls); refs = 1; cls }
    end
  end
  else begin
    Metrics.count_alloc ();
    { data = Bytes.create size; refs = 1; cls }
  end

let incref store = store.refs <- store.refs + 1

let decref store =
  store.refs <- store.refs - 1;
  if store.refs = 0 && store.cls >= 0 then begin
    let fl = Stdlib.Domain.DLS.get freelist_key in
    let depth = fl.freelist_depths.(store.cls) in
    if depth < max_freelist_depth then begin
      fl.freelists.(store.cls).(depth) <- store;
      fl.freelist_depths.(store.cls) <- depth + 1
    end
  end

(* ---- allocation accounting ------------------------------------------- *)

(* Stands in for the kernel mbuf pool that the SPIN "packet buffer"
   protection domain exposes to most extensions. *)
let allocated = ref 0
let live = ref 0

let stats () = (!allocated, !live)
let total_allocated () = !allocated

let reset_stats () =
  allocated := 0;
  live := 0

(* ---- chain plumbing --------------------------------------------------- *)

let normalize t =
  if t.back <> [] then begin
    t.front <- t.front @ List.rev t.back;
    t.back <- []
  end

let iter_segs f t =
  List.iter f t.front;
  if t.back <> [] then List.iter f (List.rev t.back)

let mk_raw segs total nsegs =
  incr allocated;
  incr live;
  { front = segs; back = []; total; nsegs; holds = 0; mark = 0 }

let alloc ?(headroom = default_headroom) len : rw t =
  if len < 0 || headroom < 0 then invalid_arg "Mbuf.alloc";
  let store = alloc_store (headroom + len) in
  (* recycled buffers are dirty; the visible region must read as zeros *)
  Bytes.fill store.data headroom len '\000';
  mk_raw [ { store; off = headroom; len } ] len 1

let free t =
  if t.holds < 0 then invalid_arg "Mbuf.free: double free";
  if t.holds > 0 then invalid_arg "Mbuf.free: frame is held";
  t.holds <- -1;
  decr live;
  iter_segs (fun seg -> decref seg.store) t;
  t.front <- [];
  t.back <- [];
  t.total <- 0;
  t.nsegs <- 0

(* A leased frame: each holder keeps it alive, and the last release
   frees it, returning its buffers to the free lists. *)
let hold t =
  if t.holds < 0 then invalid_arg "Mbuf.hold: freed";
  t.holds <- t.holds + 1

let release t =
  let n = t.holds in
  if n > 1 then t.holds <- n - 1
  else if n = 1 then begin
    t.holds <- 0;
    free t
  end
  else if n = 0 then invalid_arg "Mbuf.release: not held"
  else invalid_arg "Mbuf.release: freed"

let length t = t.total
let num_segs t = t.nsegs
let is_empty t = t.total = 0
let mark t = t.mark
let set_mark t m = t.mark <- m

let of_string s : rw t =
  let len = String.length s in
  let store = alloc_store (default_headroom + len) in
  Bytes.blit_string s 0 store.data default_headroom len;
  Metrics.count_copy len;
  mk_raw [ { store; off = default_headroom; len } ] len 1

let seg_view seg = View.of_bytes ~off:seg.off ~len:seg.len seg.store.data

let views (t : 'p t) : 'p View.t list =
  let acc = ref [] in
  iter_segs (fun seg -> acc := View.unsafe_cast (seg_view seg) :: !acc) t;
  List.rev !acc

(* Allocation-free, in-order walk over the segments' byte windows (for
   the checksum fold): [front] forwards, then the reversed [back] list
   by recursion, so no list is rebuilt. *)
let rec fold_front f acc = function
  | [] -> acc
  | seg :: tl -> fold_front f (f acc seg.store.data seg.off seg.len) tl

let rec fold_back f acc = function
  | [] -> acc
  | seg :: tl -> f (fold_back f acc tl) seg.store.data seg.off seg.len

let unsafe_fold_segs f acc t = fold_back f (fold_front f acc t.front) t.back

let ro (t : _ t) : ro t = t

(* Uncounted flatten for structural operations (equality, debug print);
   [to_string] below is the counted marshalling entry point. *)
let flatten_string t =
  let b = Buffer.create t.total in
  iter_segs (fun seg -> Buffer.add_subbytes b seg.store.data seg.off seg.len) t;
  Buffer.contents b

let to_string t =
  if t.total > 0 then Metrics.count_copy t.total;
  flatten_string t

(* Make at least [n] bytes contiguous at the head of the chain, copying
   (like BSD m_pullup) only when the first segment is too short. *)
let pullup (t : _ t) n =
  if n > t.total then invalid_arg "Mbuf.pullup: chain too short";
  normalize t;
  match t.front with
  | first :: _ when first.len >= n -> ()
  | _ ->
      let store = alloc_store (default_headroom + t.total) in
      let pos = ref default_headroom in
      iter_segs
        (fun seg ->
          Bytes.blit seg.store.data seg.off store.data !pos seg.len;
          pos := !pos + seg.len;
          decref seg.store)
        t;
      Metrics.count_copy t.total;
      t.front <- [ { store; off = default_headroom; len = t.total } ];
      t.back <- [];
      t.nsegs <- 1

let view (t : 'p t) : 'p View.t =
  normalize t;
  match t.front with
  | [] -> View.unsafe_cast (View.create 0)
  | [ seg ] -> View.unsafe_cast (seg_view seg)
  | _ :: _ ->
      (* Multi-segment chains are flattened on demand; protocol code calls
         [pullup] first — or uses [views] — to control when this copy
         happens. *)
      pullup t t.total;
      (match t.front with
      | [ s ] -> View.unsafe_cast (seg_view s)
      | _ -> assert false)

let copy_rw (t : _ t) : rw t =
  let store = alloc_store (default_headroom + t.total) in
  let pos = ref default_headroom in
  iter_segs
    (fun seg ->
      Bytes.blit seg.store.data seg.off store.data !pos seg.len;
      pos := !pos + seg.len)
    t;
  if t.total > 0 then Metrics.count_copy t.total;
  let r = mk_raw [ { store; off = default_headroom; len = t.total } ] t.total 1 in
  r.mark <- t.mark;
  r

(* A segment's headroom (or tailroom) may only be written when this
   chain is the store's sole owner — fragments sharing a payload buffer
   must not scribble on each other's bytes. *)
let exclusive seg = seg.store.refs = 1

let prepend (t : rw t) n : View.rw View.t =
  if n < 0 then invalid_arg "Mbuf.prepend";
  normalize t;
  (match t.front with
  | first :: _ when first.off >= n && exclusive first ->
      first.off <- first.off - n;
      first.len <- first.len + n;
      Bytes.fill first.store.data first.off n '\000'
  | front ->
      let store = alloc_store (default_headroom + n) in
      Bytes.fill store.data default_headroom n '\000';
      t.front <- { store; off = default_headroom; len = n } :: front;
      t.nsegs <- t.nsegs + 1);
  t.total <- t.total + n;
  match t.front with
  | first :: _ -> View.of_bytes ~off:first.off ~len:n first.store.data
  | [] -> assert false

let extend_back (t : rw t) n : View.rw View.t =
  if n < 0 then invalid_arg "Mbuf.extend_back";
  let rec last = function [ x ] -> Some x | _ :: tl -> last tl | [] -> None in
  let tail =
    match t.back with s :: _ -> Some s | [] -> last t.front
  in
  let seg =
    match tail with
    | Some seg
      when seg.off + seg.len + n <= Bytes.length seg.store.data && exclusive seg
      ->
        Bytes.fill seg.store.data (seg.off + seg.len) n '\000';
        seg.len <- seg.len + n;
        seg
    | _ ->
        let store = alloc_store n in
        Bytes.fill store.data 0 n '\000';
        let seg = { store; off = 0; len = n } in
        t.back <- seg :: t.back;
        t.nsegs <- t.nsegs + 1;
        seg
  in
  t.total <- t.total + n;
  View.of_bytes ~off:(seg.off + seg.len - n) ~len:n seg.store.data

let trim_front (t : rw t) n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.trim_front";
  normalize t;
  let rec go n segs =
    if n = 0 then segs
    else
      match segs with
      | [] -> assert false
      | seg :: tl ->
          if seg.len <= n then begin
            decref seg.store;
            t.nsegs <- t.nsegs - 1;
            go (n - seg.len) tl
          end
          else begin
            seg.off <- seg.off + n;
            seg.len <- seg.len - n;
            segs
          end
  in
  t.front <- go n t.front;
  t.total <- t.total - n

let trim_back (t : rw t) n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.trim_back";
  normalize t;
  let target = t.total - n in
  let rec go kept segs =
    match segs with
    | [] -> []
    | seg :: tl ->
        if kept >= target then begin
          List.iter
            (fun s ->
              decref s.store;
              t.nsegs <- t.nsegs - 1)
            segs;
          []
        end
        else if kept + seg.len <= target then seg :: go (kept + seg.len) tl
        else begin
          List.iter
            (fun s ->
              decref s.store;
              t.nsegs <- t.nsegs - 1)
            tl;
          seg.len <- target - kept;
          [ seg ]
        end
  in
  t.front <- go 0 t.front;
  t.total <- target

let concat (a : rw t) (b : rw t) =
  let b_segs = if b.back = [] then b.front else b.front @ List.rev b.back in
  (* rev(rev_append b_segs a.back) = rev a.back @ b_segs: b's segments
     land after a's in order, without retraversing a's chain. *)
  a.back <- List.rev_append b_segs a.back;
  a.total <- a.total + b.total;
  a.nsegs <- a.nsegs + b.nsegs;
  b.front <- [];
  b.back <- [];
  b.total <- 0;
  b.nsegs <- 0

(* Zero-copy sub-chain: the result shares the underlying stores (their
   refcounts grow), so no payload byte moves.  Writable sub-chains of a
   writable parent are for trusted composition code (fragmentation);
   sharing means headroom tricks automatically fall back to fresh header
   segments ([exclusive] above). *)
let sub (t : 'p t) ~off ~len : 'p t =
  if off < 0 || len < 0 || off + len > t.total then invalid_arg "Mbuf.sub";
  let segs = ref [] and nsegs = ref 0 in
  let pos = ref 0 in
  iter_segs
    (fun seg ->
      let seg_start = !pos and seg_end = !pos + seg.len in
      pos := seg_end;
      let lo = Int.max seg_start off and hi = Int.min seg_end (off + len) in
      if lo < hi then begin
        incref seg.store;
        segs :=
          { store = seg.store; off = seg.off + (lo - seg_start); len = hi - lo }
          :: !segs;
        incr nsegs
      end)
    t;
  let r = mk_raw (List.rev !segs) len !nsegs in
  r.mark <- t.mark;
  r

(* Ownership transfer: the result takes over [t]'s segments and [t]
   becomes empty.  This is how the driver consumes a frame at transmit
   time — the sender keeps a (now empty) handle and can no longer
   scribble on bytes that are on the wire. *)
let take (t : 'p t) : 'p t =
  let r =
    {
      front = t.front;
      back = t.back;
      total = t.total;
      nsegs = t.nsegs;
      holds = 0;
      mark = t.mark;
    }
  in
  t.front <- [];
  t.back <- [];
  t.total <- 0;
  t.nsegs <- 0;
  r

let sub_copy (t : _ t) ~off ~len : rw t =
  if off < 0 || len < 0 || off + len > t.total then invalid_arg "Mbuf.sub_copy";
  let store = alloc_store (default_headroom + len) in
  let pos = ref 0 in
  iter_segs
    (fun seg ->
      let seg_start = !pos and seg_end = !pos + seg.len in
      pos := seg_end;
      let lo = Int.max seg_start off and hi = Int.min seg_end (off + len) in
      if lo < hi then
        Bytes.blit seg.store.data
          (seg.off + (lo - seg_start))
          store.data
          (default_headroom + (lo - off))
          (hi - lo))
    t;
  if len > 0 then Metrics.count_copy len;
  let r = mk_raw [ { store; off = default_headroom; len } ] len 1 in
  r.mark <- t.mark;
  r

let equal a b = a.total = b.total && flatten_string a = flatten_string b
