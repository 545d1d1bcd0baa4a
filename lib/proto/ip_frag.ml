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
        let n = min max_data (len - off) in
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

type ctx = {
  mutable chunks : (int * View.ro View.t) list; (* byte offset, payload *)
  mutable frames : Mbuf.ro Mbuf.t list; (* held for their chunks' views *)
  mutable total : int option;           (* known once the last fragment arrives *)
  mutable received : int;
  deadline : Sim.Stime.t;
}

type t = {
  pending : (key, ctx) Hashtbl.t;
  timeout : Sim.Stime.t;
  mutable timer : Sim.Engine.handle option;
  mutable timeouts : int;
  mutable reassembled : int;
}

let create ?(timeout = Sim.Stime.s 30) () =
  { pending = Hashtbl.create 16; timeout; timer = None; timeouts = 0;
    reassembled = 0 }

let pending_count t = Hashtbl.length t.pending
let reassembled_count t = t.reassembled
let timeout_count t = t.timeouts

(* A train ends — reassembled, expired or dropped — and lets go of the
   frames its chunks view. *)
let finish t key ctx =
  Hashtbl.remove t.pending key;
  List.iter Mbuf.release ctx.frames;
  ctx.frames <- []

let expire t ~now =
  let stale =
    Hashtbl.fold
      (fun k ctx acc ->
        if Sim.Stime.compare now ctx.deadline > 0 then (k, ctx) :: acc else acc)
      t.pending []
  in
  List.iter
    (fun (k, ctx) ->
      finish t k ctx;
      t.timeouts <- t.timeouts + 1)
    stale;
  List.length stale

(* The earliest deadline among pending reassemblies, or [None] when
   nothing is pending. *)
let next_deadline t =
  Hashtbl.fold
    (fun _ ctx acc ->
      match acc with
      | None -> Some ctx.deadline
      | Some d ->
          if Sim.Stime.compare ctx.deadline d < 0 then Some ctx.deadline
          else acc)
    t.pending None

(* Scheduled expiry.  [receive] only expires lazily — when *another*
   fragment arrives — so under loss a half-delivered fragment train
   would pin its chunk buffers forever.  A one-shot timer armed at the
   earliest pending deadline bounds that: it fires, expires what is
   stale, and re-arms only while reassemblies remain pending.  It is
   cancelled the moment nothing is pending — never a standing tick,
   which would keep the event-driven engine from draining (or stretch
   every fragmented run out to the 30 s reassembly timeout). *)
let rec schedule_expiry t engine =
  match t.timer with
  | Some h ->
      if pending_count t = 0 then begin
        Sim.Engine.cancel engine h;
        t.timer <- None
      end
  | None -> (
      match next_deadline t with
      | None -> ()
      | Some deadline ->
          (* [expire] drops contexts strictly past their deadline; fire
             1 ns after it *)
          let now = Sim.Engine.now engine in
          let delay =
            Sim.Stime.add (Sim.Stime.sub (max deadline now) now) (Sim.Stime.ns 1)
          in
          t.timer <-
            Some
              (Sim.Engine.schedule_in engine ~delay (fun () ->
                   t.timer <- None;
                   ignore (expire t ~now:(Sim.Engine.now engine) : int);
                   schedule_expiry t engine)))

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
let input t ~now (h : Ipv4.header) (payload : _ View.t) frame =
  let payload = View.ro payload in
  ignore (expire t ~now : int);
  let key = { src = h.src; dst = h.dst; proto = h.proto; id = h.id } in
  let ctx =
    match Hashtbl.find_opt t.pending key with
    | Some c -> c
    | None ->
        let c =
          {
            chunks = [];
            frames = [];
            total = None;
            received = 0;
            deadline = Sim.Stime.add now t.timeout;
          }
        in
        Hashtbl.replace t.pending key c;
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
    finish t key ctx;
    Drop Ipv4.Bad_fragment
  end
  else begin
    if not dup then begin
      ctx.chunks <- (off, payload) :: ctx.chunks;
      ctx.received <- ctx.received + len;
      match frame with
      | Some f ->
          Mbuf.hold f;
          ctx.frames <- f :: ctx.frames
      | None -> ()
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
        finish t key ctx;
        Reassembled (h, datagram)
    | _ -> Pending
  end

(* The one IPv4 receive decision every stack takes: validate the header
   in place, then deliver an unfragmented datagram with its header
   record (built directly, so the verdict costs what [Some header] did)
   or feed the fragment's payload to reassembly.  [lease src] is the
   frame a stored chunk holds; it is built on the fragment path only,
   so an unfragmented datagram allocates nothing for it. *)
let classify t ~now ~host v lease src =
  match Ipv4.check ~host v with
  | Some reason -> Drop reason
  | None ->
      let h = Ipv4.read v in
      if not (h.more_fragments || h.frag_offset > 0) then Deliver h
      else
        input t ~now h
          (View.sub v ~off:Ipv4.header_len ~len:(h.total_len - Ipv4.header_len))
          (lease src)

let receive t ~now ~host v = classify t ~now ~host v (fun () -> None) ()

let receive_frame t ~now ~host frame v =
  classify t ~now ~host v (fun f -> Some (Mbuf.ro f)) frame
