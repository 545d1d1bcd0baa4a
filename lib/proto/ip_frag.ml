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

(* Reassembly contexts are keyed by (src, dst, proto, id). *)
type key = { src : Ipaddr.t; dst : Ipaddr.t; proto : int; id : int }

type ctx = {
  mutable chunks : (int * View.ro View.t) list; (* byte offset, payload *)
  mutable total : int option;           (* known once the last fragment arrives *)
  mutable received : int;
  deadline : Sim.Stime.t;
}

type t = {
  pending : (key, ctx) Hashtbl.t;
  timeout : Sim.Stime.t;
  mutable timeouts : int;
  mutable reassembled : int;
}

let create ?(timeout = Sim.Stime.s 30) () =
  { pending = Hashtbl.create 16; timeout; timeouts = 0; reassembled = 0 }

let pending_count t = Hashtbl.length t.pending
let reassembled_count t = t.reassembled
let timeout_count t = t.timeouts

let expire t ~now =
  let stale =
    Hashtbl.fold
      (fun k ctx acc -> if Sim.Stime.compare now ctx.deadline > 0 then k :: acc else acc)
      t.pending []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.pending k;
      t.timeouts <- t.timeouts + 1)
    stale;
  List.length stale

(* The earliest deadline among pending reassemblies — what a periodic
   expirer should arm its next one-shot timer at.  [None] when nothing
   is pending, so the expirer can go quiet instead of ticking forever
   (a perpetual timer would keep the event-driven engine from ever
   draining). *)
let next_deadline t =
  Hashtbl.fold
    (fun _ ctx acc ->
      match acc with
      | None -> Some ctx.deadline
      | Some d ->
          if Sim.Stime.compare ctx.deadline d < 0 then Some ctx.deadline
          else acc)
    t.pending None

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

type outcome = Pending | Complete of Mbuf.rw Mbuf.t | Malformed

(* Feed one fragment's payload.  A train completes only when its chunks
   tile [0, total) exactly: a chunk that overlaps another (other than an
   exact duplicate, which is ignored) or ends past the total drops the
   whole train, since [assemble] could not place it.  The chunk views
   must stay valid until completion (they reference the arriving frames'
   buffers, which the receive path keeps alive). *)
let input t ~now (h : Ipv4.header) (payload : _ View.t) : outcome =
  let payload = View.ro payload in
  if (not h.more_fragments) && h.frag_offset = 0 then
    Complete (assemble (View.length payload) [ (0, payload) ])
  else begin
    ignore (expire t ~now : int);
    let key = { src = h.src; dst = h.dst; proto = h.proto; id = h.id } in
    let ctx =
      match Hashtbl.find_opt t.pending key with
      | Some c -> c
      | None ->
          let c =
            {
              chunks = [];
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
    if total_clash || overlap || past_end then begin
      Hashtbl.remove t.pending key;
      Malformed
    end
    else begin
      if not dup then begin
        ctx.chunks <- (off, payload) :: ctx.chunks;
        ctx.received <- ctx.received + len
      end;
      ctx.total <- total;
      (* disjoint chunks inside [0, total) tile it when their sizes sum
         to it *)
      match total with
      | Some total when ctx.received = total ->
          Hashtbl.remove t.pending key;
          t.reassembled <- t.reassembled + 1;
          Complete (assemble total ctx.chunks)
      | _ -> Pending
    end
  end
