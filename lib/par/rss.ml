(* Seeded RSS workload plans: prebuilt steady-state UDP frames with
   pre-computed NIC-steer and shard-owner hashes.  See rss.mli. *)

let ip_a = Proto.Ipaddr.v 10 0 1 1
let ip_b = Proto.Ipaddr.v 10 0 1 2

type kind = Udp of { flow : int } | Arp of { seq : int }

type frame = {
  bytes : string;
  steer_hash : int;
  owner_hash : int;
  kind : kind;
  pkt : int;
}

type t = {
  seed : int;
  flows : int;
  pkts_per_flow : int;
  payload_len : int;
  udp_frames : int;
  arp_frames : int;
  frames : frame array;
}

let steer ~domains f = (f.steer_hash land max_int) mod domains

let owner ~domains f =
  if f.owner_hash < 0 then 0 else (f.owner_hash land max_int) mod domains

(* Flow [i]'s 5-tuple: distinct (src ip, src port) pairs toward the
   server's UDP echo port. *)
let flow_src i =
  (Proto.Ipaddr.v 10 1 ((i / 250) land 255) (1 + (i mod 250)),
   5000 + (i mod 20000))

(* One ARP request is woven in per [arp_every] datagrams, and every
   [legacy_every]-th flow is steered by the legacy 2-tuple hash. *)
let arp_every = 64
let legacy_every = 4

let make ?(payload_len = 256) ~seed ~flows ~pkts_per_flow () =
  if flows <= 0 then invalid_arg "Rss.make: flows must be positive";
  if pkts_per_flow <= 0 then
    invalid_arg "Rss.make: pkts_per_flow must be positive";
  (* Throwaway planner testbed: borrows a receive device so the owner
     hash comes from the real [Filter.flow_signature] via [Pctx.make],
     and the destination MAC matches what every per-domain world's
     server device will carry (host MACs are a pure function of host ip
     and device index). *)
  let engine = Sim.Engine.create () in
  let _ea, eb =
    Netsim.Network.pair engine
      (Netsim.Costs.ethernet ())
      ~a:("hostA", ip_a) ~b:("hostB", ip_b)
  in
  let dev = eb.Netsim.Network.dev in
  let dst_mac = Netsim.Dev.mac dev in
  let src_mac = Proto.Ether.Mac.of_int 0x0A0000010001 in
  let mk_udp i =
    let src, src_port = flow_src i in
    let m = Mbuf.alloc payload_len in
    Proto.Udp.encapsulate ~checksum:true m ~src ~dst:ip_b ~src_port
      ~dst_port:7;
    Proto.Ipv4.encapsulate m
      (Proto.Ipv4.make ~id:(i land 0xffff) ~proto:Proto.Ipv4.proto_udp ~src
         ~dst:ip_b ~payload_len:(Mbuf.length m) ());
    Proto.Ether.encapsulate m
      { Proto.Ether.dst = dst_mac; src = src_mac; etype = Proto.Ether.etype_ip };
    let ro = Mbuf.ro m in
    let sg =
      match Plexus.Filter.flow_signature (Plexus.Pctx.make dev ro) with
      | Some s -> s
      | None -> failwith "Rss.make: UDP frame has no flow signature"
    in
    let owner_hash = Hashtbl.hash sg in
    let steer_hash =
      if i mod legacy_every = 0 then
        (* legacy NIC: RSS over the ip pair only *)
        Hashtbl.hash (Proto.Ipaddr.to_int src, Proto.Ipaddr.to_int ip_b)
      else owner_hash
    in
    { bytes = Mbuf.to_string ro; steer_hash; owner_hash;
      kind = Udp { flow = i }; pkt = 0 }
  in
  let mk_arp k =
    let sender_ip = Proto.Ipaddr.v 10 0 1 (3 + (k mod 250)) in
    let sender_mac = Proto.Ether.Mac.of_int (0x0A0000CAFE00 + (k land 0xff)) in
    let m =
      Proto.Arp.to_packet
        (Proto.Arp.request ~sender_mac ~sender_ip ~target_ip:ip_b)
    in
    Proto.Ether.encapsulate m
      {
        Proto.Ether.dst = Proto.Ether.Mac.broadcast;
        src = sender_mac;
        etype = Proto.Ether.etype_arp;
      };
    (* broadcasts land on whichever queue the NIC picks round-robin;
       the control plane (domain 0) owns them *)
    { bytes = Mbuf.to_string m; steer_hash = k; owner_hash = -1;
      kind = Arp { seq = k }; pkt = 0 }
  in
  let flow_frames = Array.init flows mk_udp in
  (* Arrival order: per round, a seeded shuffle of the flow set — random
     cross-flow interleave, strictly FIFO within each flow.  Frame bytes
     stay shared per flow; each emitted arrival gets its own record
     carrying the 1-based arrival ordinal [pkt], the key every domain
     feeds [Observe.Flight.mark_for] so the sampled set is identical no
     matter how the plan is sharded. *)
  let rng = Sim.Rng.create seed in
  let order = Array.init flows Fun.id in
  let udp_frames = flows * pkts_per_flow in
  let arp_frames = udp_frames / arp_every in
  let out = Array.make (udp_frames + arp_frames) flow_frames.(0) in
  let pos = ref 0 and emitted_udp = ref 0 and arp_seq = ref 0 in
  let emit f =
    out.(!pos) <- { f with pkt = !pos + 1 };
    incr pos
  in
  for _round = 1 to pkts_per_flow do
    for i = flows - 1 downto 1 do
      let j = Sim.Rng.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun fi ->
        emit flow_frames.(fi);
        incr emitted_udp;
        if !emitted_udp mod arp_every = 0 && !arp_seq < arp_frames then begin
          emit (mk_arp !arp_seq);
          incr arp_seq
        end)
      order
  done;
  assert (!pos = Array.length out);
  { seed; flows; pkts_per_flow; payload_len; udp_frames; arp_frames;
    frames = out }
