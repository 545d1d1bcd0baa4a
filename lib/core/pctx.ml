(* The payload of protocol-graph events: a read-only packet plus the
   demultiplexing state accumulated as it climbs the graph.

   Handlers receive the packet [READONLY] (an [Mbuf.ro] — writes do not
   type-check, per the paper's Figure 4) along with a cursor [off] marking
   the start of the current layer's data.  Each protocol layer raises the
   next event with an advanced cursor and its parsed header attached, so
   upper guards can discriminate (e.g. on ports) without re-parsing.

   The frame's view is built once, when the context is made, and every
   layer reads header fields through it in place. *)

type t = {
  dev : Netsim.Dev.t;            (* arrival device *)
  pkt : Mbuf.ro Mbuf.t;          (* the full received frame, read-only *)
  frame : View.ro View.t;        (* a view of all of [pkt], built once *)
  off : int;                     (* start of the current layer *)
  limit : int;                   (* end of valid data (frames are padded) *)
  ip : Proto.Ipv4.header option;
  src_port : int;                (* transport ports; -1 until parsed *)
  dst_port : int;
}

let make dev pkt =
  let frame = View.ro (Mbuf.view pkt) in
  {
    dev;
    pkt;
    frame;
    off = 0;
    limit = View.length frame;
    ip = None;
    src_port = -1;
    dst_port = -1;
  }

(* A view of the packet from the cursor to the limit — the VIEW(a,T)
   idiom of Figure 2.  The whole frame is the cached view itself. *)
let view t : View.ro View.t =
  if t.off = 0 && t.limit = View.length t.frame then t.frame
  else View.sub t.frame ~off:t.off ~len:(t.limit - t.off)

let advance t n = { t with off = t.off + n }

let with_ip t h = { t with ip = Some h }
let with_ports t ~src_port ~dst_port = { t with src_port; dst_port }

let with_limit t n =
  if t.off + n > View.length t.frame then invalid_arg "Pctx.with_limit";
  { t with limit = t.off + n }

(* One layer's hand-off in one record: the IP layer steps past [n]
   header bytes, bounds the data to [len] bytes past the new cursor
   (stripping link padding) and attaches its header. *)
let advance_ip t n ~len h =
  let off = t.off + n in
  if off + len > View.length t.frame then invalid_arg "Pctx.advance_ip";
  { t with off; limit = Int.min t.limit (off + len); ip = Some h }

(* ...and the transport layer steps past its header and records the
   ports. *)
let advance_ports t n ~src_port ~dst_port =
  { t with off = t.off + n; src_port; dst_port }

(* Replace the packet entirely (IP reassembly delivers a fresh datagram
   that no longer corresponds to one frame).  The flight-recorder mark
   carries over: a sampled fragment's timeline continues through the
   reassembled datagram. *)
let with_payload t pkt =
  Mbuf.set_mark pkt (Mbuf.mark t.pkt);
  let frame = View.ro (Mbuf.view pkt) in
  { t with pkt; frame; off = 0; limit = View.length frame }

let payload_len t = t.limit - t.off

(* True when the arrival device already made the CPU touch every payload
   byte (programmed I/O): transports then fold checksum verification into
   that pass instead of charging a separate one. *)
let data_touched_by_device t =
  (Netsim.Dev.params t.dev).Netsim.Costs.pio_ns_per_byte > 0.

let ip_exn t =
  match t.ip with
  | Some h -> h
  | None -> invalid_arg "Pctx.ip_exn: no IP header parsed"
