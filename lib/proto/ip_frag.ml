(* IP fragmentation and reassembly.  The video experiment (Figure 6)
   sends 12.5 KB UDP frames, which must be fragmented to the device MTU;
   the receive side reassembles before the UDP layer sees the datagram.

   Fragmentation is zero-copy: each fragment is an [Mbuf.sub] sub-chain
   sharing the datagram's buffers, so splitting a 12.5 KB datagram moves
   no payload bytes at all (headers are later prepended into fresh
   per-fragment segments because the shared payload store is not
   exclusively owned).  Reassembly holds (offset, view) chunks and blits
   each byte exactly once into a fresh mbuf when the datagram completes —
   the one legitimate copy on this path. *)

(* Split a datagram into (offset-in-8-byte-units, more, sub-chain)
   fragments that each fit in [mtu] together with the IP header.  The
   caller keeps ownership of [payload]; fragments hold their own
   references to its buffers. *)
let fragment ~mtu (payload : 'p Mbuf.t) : (int * bool * 'p Mbuf.t) list =
  if mtu <= Ipv4.header_len + 8 then invalid_arg "Ip_frag.fragment: mtu too small";
  let max_data = (mtu - Ipv4.header_len) / 8 * 8 in
  let len = Mbuf.length payload in
  if len <= max_data then [ (0, false, Mbuf.sub payload ~off:0 ~len) ]
  else begin
    let rec go off acc =
      if off >= len then List.rev acc
      else begin
        let n = Int.min max_data (len - off) in
        let more = off + n < len in
        go (off + n) ((off / 8, more, Mbuf.sub payload ~off ~len:n) :: acc)
      end
    in
    go 0 []
  end

(* A datagram's packets, IPv4 header pushed on each: the payload itself
   when it fits the MTU, else its zero-copy fragments, which hold their
   own references to its buffers, so the payload's handle is freed and
   the buffers go back to the free lists with the last fragment. *)
let packets ~mtu ~id ~proto ~src ~dst (payload : Mbuf.rw Mbuf.t) =
  if Mbuf.length payload + Ipv4.header_len <= mtu then begin
    Ipv4.push payload ~id ~more_fragments:false ~frag_offset:0 ~proto ~src ~dst;
    [ payload ]
  end
  else begin
    let frags =
      List.map
        (fun (off8, more, frag) ->
          Ipv4.push frag ~id ~more_fragments:more ~frag_offset:off8 ~proto
            ~src ~dst;
          frag)
        (fragment ~mtu payload)
    in
    Mbuf.free payload;
    frags
  end

(* Reassembly contexts are keyed by (src, dst, proto, id). *)
type key = { src : Ipaddr.t; dst : Ipaddr.t; proto : int; id : int }

(* Every train gets the same timeout when it is created, so deadlines
   come in creation order: the pending trains form one FIFO, linked
   through [prev]/[next] around a sentinel, and expiry looks only at
   its head. *)
type ctx = {
  key : key;
  mutable chunks : (int * View.ro View.t) list; (* byte offset, payload *)
  mutable frames : Mbuf.ro Mbuf.t list; (* held for their chunks' views *)
  mutable held : int;                   (* bytes of those frames (or chunks) *)
  mutable total : int option;           (* known once the last fragment arrives *)
  mutable received : int;
  deadline : Sim.Stime.t;
  mutable prev : ctx;
  mutable next : ctx;
}

type t = {
  engine : Sim.Engine.t;
  pending : (key, ctx) Hashtbl.t;       (* the FIFO's index by key *)
  fifo : ctx;       (* sentinel: [fifo.next] the oldest, [fifo.prev] the newest *)
  timer : Sim.Engine.handle;  (* pending exactly while some train is *)
  mutable held : int;
  mutable timeouts : int;
  mutable evicted : int;
  mutable reassembled : int;
}

let timeout = Sim.Stime.s 30

(* The reassembly budget (BSD's [maxfragpackets], Linux's
   [ipfrag_high_thresh]): past either, the oldest train is evicted. *)
let max_trains = 1024
let max_held = 4 * 1024 * 1024

let create engine =
  let key = { src = Ipaddr.any; dst = Ipaddr.any; proto = 0; id = 0 } in
  let rec fifo =
    { key; chunks = []; frames = []; held = 0; total = None; received = 0;
      deadline = Sim.Stime.zero; prev = fifo; next = fifo }
  in
  { engine; pending = Hashtbl.create 16; fifo; timer = Sim.Engine.timer engine;
    held = 0; timeouts = 0; evicted = 0; reassembled = 0 }

let pending_count t = Hashtbl.length t.pending
let reassembled_count t = t.reassembled
let timeout_count t = t.timeouts
let evicted_count t = t.evicted

(* A train ends — reassembled, expired, evicted or dropped — and lets go
   of the frames its chunks view; the last one out cancels the timer.
   Its own links are cut too: an old train still pointing along the
   FIFO would make the minor GC promote every train created after it. *)
let finish t ctx =
  Hashtbl.remove t.pending ctx.key;
  ctx.prev.next <- ctx.next;
  ctx.next.prev <- ctx.prev;
  ctx.prev <- ctx;
  ctx.next <- ctx;
  t.held <- t.held - ctx.held;
  List.iter Mbuf.release ctx.frames;
  ctx.frames <- [];
  if t.fifo.next == t.fifo then Sim.Engine.cancel t.engine t.timer

(* Expire the trains strictly past their deadline: a prefix of the FIFO. *)
let rec expire t now =
  let c = t.fifo.next in
  if c != t.fifo && Sim.Stime.compare now c.deadline > 0 then begin
    t.timeouts <- t.timeouts + 1;
    finish t c;
    expire t now
  end

(* Under loss a stalled train would otherwise pin its frames until some
   later fragment arrives, so the timer fires 1 ns after the head's
   deadline, expires the stale prefix and re-arms at the new head.  A
   head that ends sooner leaves the timer where it is, to fire and find
   nothing stale.  It is never a standing tick, which would keep the
   event-driven engine from draining. *)
let rec arm t =
  let c = t.fifo.next in
  if c != t.fifo then
    Sim.Engine.arm t.engine t.timer
      ~at:(Sim.Stime.add c.deadline (Sim.Stime.ns 1))
      (fun () ->
        expire t (Sim.Engine.now t.engine);
        arm t)

(* Evict the oldest trains, never [ctx] itself, while over budget. *)
let rec evict t ctx =
  let c = t.fifo.next in
  if c != ctx && (pending_count t > max_trains || t.held > max_held) then begin
    t.evicted <- t.evicted + 1;
    finish t c;
    evict t ctx
  end

(* Assemble completed chunks into a fresh contiguous datagram: each
   payload byte is copied exactly once, here. *)
let assemble total chunks =
  let m = Mbuf.alloc total in
  let dst = Mbuf.view m in
  List.iter
    (fun (o, v) ->
      View.blit ~src:v ~dst ~src_off:0 ~dst_off:o ~len:(View.length v))
    chunks;
  m

type verdict =
  | Deliver of Ipv4.header
  | Reassembled of Ipv4.header * Mbuf.rw Mbuf.t
  | Pending
  | Drop of Ipv4.drop

(* Feed one fragment's payload.  A train completes only when its chunks
   tile [0, total) exactly: a chunk that overlaps another (other than an
   exact duplicate, which is ignored), ends past the total or past the
   largest payload a 16-bit total length can describe drops the whole
   train, since [assemble] could not place it.  The chunk views must
   stay valid until the train ends: a stored chunk holds [frame], the
   arriving frame it views, when there is one. *)
let input t (h : Ipv4.header) (payload : _ View.t) frame =
  let payload = View.ro payload in
  let now = Sim.Engine.now t.engine in
  expire t now;
  let key = { src = h.src; dst = h.dst; proto = h.proto; id = h.id } in
  let ctx =
    match Hashtbl.find_opt t.pending key with
    | Some c -> c
    | None ->
        let last = t.fifo.prev in
        let c =
          { key; chunks = []; frames = []; held = 0; total = None;
            received = 0; deadline = Sim.Stime.add now timeout;
            prev = last; next = t.fifo }
        in
        last.next <- c;
        t.fifo.prev <- c;
        Hashtbl.replace t.pending key c;
        if last == t.fifo then arm t;
        c
  in
  let off = h.frag_offset * 8 in
  let len = View.length payload in
  let stop = off + len in
  let dup =
    List.exists (fun (o, v) -> o = off && View.length v = len) ctx.chunks
  in
  let total = if h.more_fragments then ctx.total else Some stop in
  let total_clash =
    match (ctx.total, total) with Some a, Some b -> a <> b | _ -> false
  in
  let overlap =
    (not dup)
    && List.exists (fun (o, v) -> off < o + View.length v && o < stop) ctx.chunks
  in
  let past_end =
    match total with
    | Some n ->
        stop > n || List.exists (fun (o, v) -> o + View.length v > n) ctx.chunks
    | None -> false
  in
  if total_clash || overlap || past_end || stop > Ipv4.max_payload then begin
    finish t ctx;
    Drop Ipv4.Bad_fragment
  end
  else begin
    if not dup then begin
      ctx.chunks <- (off, payload) :: ctx.chunks;
      ctx.received <- ctx.received + len;
      let bytes =
        match frame with
        | Some f ->
            Mbuf.hold f;
            ctx.frames <- f :: ctx.frames;
            Mbuf.length f
        | None -> len
      in
      ctx.held <- ctx.held + bytes;
      t.held <- t.held + bytes
    end;
    ctx.total <- total;
    (* disjoint chunks inside [0, total) tile it when their sizes sum
       to it *)
    match total with
    | Some total when ctx.received = total ->
        t.reassembled <- t.reassembled + 1;
        (* the datagram as if it had arrived whole *)
        let h =
          { h with more_fragments = false; frag_offset = 0;
                   total_len = Ipv4.header_len + total }
        in
        let datagram = assemble total ctx.chunks in
        finish t ctx;
        Reassembled (h, datagram)
    | _ ->
        evict t ctx;
        Pending
  end

(* The one IPv4 receive decision every stack takes: validate the header
   in place, then deliver an unfragmented datagram with its header
   record (built directly, so the verdict costs what [Some header] did)
   or feed the fragment's payload to reassembly.  [lease src] is the
   frame a stored chunk holds; it is built on the fragment path only,
   so an unfragmented datagram allocates nothing for it. *)
let classify t ~host v lease src =
  match Ipv4.check ~host v with
  | Some reason -> Drop reason
  | None ->
      let h = Ipv4.read v in
      if not (h.more_fragments || h.frag_offset > 0) then Deliver h
      else
        input t h
          (View.sub v ~off:Ipv4.header_len ~len:(h.total_len - Ipv4.header_len))
          (lease src)

let receive t ~host v = classify t ~host v (fun () -> None) ()

let receive_frame t ~host frame v =
  classify t ~host v (fun f -> Some (Mbuf.ro f)) frame
