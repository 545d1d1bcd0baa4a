(* The one IPv4/UDP receive path, driven through all three stacks:
   Plexus, the DIGITAL UNIX baseline and the user-level library.  One
   hostile frame per drop reason must land on the stack's counter for
   that reason and leave the stack delivering; a differential property
   checks that the three agree on every mutated frame; and the ICMP
   error and oversize-send rules hold on each stack that has them.  The
   one TCP receive path gets the same per-reason table on the two
   stacks that run TCP, with a listener that must open nothing. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b

(* ---- frames --------------------------------------------------------- *)

(* Rewrite a header checksum after an edit. *)
let fix_ip_cksum v =
  View.set_u16 v Proto.Ipv4.Off.cksum 0;
  View.set_u16 v Proto.Ipv4.Off.cksum
    (Cksum.of_sub v ~off:0 ~len:Proto.Ipv4.header_len)

(* An IPv4 datagram from A carrying [payload]; [edit] runs on the
   written header, after which its checksum is recomputed unless
   [~fix:false]. *)
let datagram ?(id = 1) ?(more_fragments = false) ?(frag_offset = 0)
    ?(proto = Proto.Ipv4.proto_udp) ?(dst = ip_b) ?(edit = ignore) ?(fix = true)
    payload =
  let len = String.length payload in
  let v = View.create (Proto.Ipv4.header_len + len) in
  View.set_string v ~off:Proto.Ipv4.header_len payload;
  Proto.Ipv4.write v
    (Proto.Ipv4.make ~id ~more_fragments ~frag_offset
       ~proto ~src:ip_a ~dst ~payload_len:len ());
  edit v;
  if fix then fix_ip_cksum v;
  View.to_string v

(* A UDP datagram from A:5000 to [dst]:[dst_port] (B:7 by default),
   with [edit] run on its bytes after the checksum was written. *)
let udp ?(dst = ip_b) ?(dst_port = 7) ?(edit = ignore) data =
  let m = Mbuf.of_string data in
  Proto.Udp.encapsulate m ~src:ip_a ~dst ~src_port:5000 ~dst_port;
  let v = View.copy (View.of_string (Mbuf.to_string m)) in
  edit v;
  View.to_string v

(* A TCP segment from A:5000 to B:80, with [edit] run on its bytes after
   the checksum was written. *)
let tcp ?(flags = Proto.Tcp_wire.Flags.ack) ?(edit = ignore) data =
  let m =
    Segment.tcp ~src:ip_a ~dst:ip_b
      {
        Proto.Tcp_wire.src_port = 5000;
        dst_port = 80;
        seq = Proto.Tcp_wire.Seq.of_int 1;
        ack = Proto.Tcp_wire.Seq.of_int 0;
        flags;
        window = 8192;
      }
      data
  in
  let v = View.copy (View.of_string (Mbuf.to_string m)) in
  edit v;
  View.to_string v

let frame ~src_dev ~dst_dev ip =
  let m = Mbuf.of_string ip in
  Proto.Ether.encapsulate m
    {
      Proto.Ether.dst = Netsim.Dev.mac dst_dev;
      src = Netsim.Dev.mac src_dev;
      etype = Proto.Ether.etype_ip;
    };
  m

let set16 off x v = View.set_u16 v off x

(* One row per drop reason: the frames (IP datagrams, in order), the
   counter each stack books the drop on, and the [Drop] span Plexus
   emits for it.  The user-level library's in-kernel filter refuses
   what is not IPv4 for the host before the copy, so three of its rows
   land on [filtered_out]. *)
type row = {
  name : string;
  ips : string list;
  plexus : string;
  du : string;
  ulib : string;
  span : string * string;
}

let rows =
  let ok = udp "hello" in
  let ip_row name ips ~plexus ~du ~ulib reason =
    { name; ips; plexus; du; ulib; span = ("ip", reason) }
  and udp_row name ip ~counter reason =
    { name; ips = [ ip ]; plexus = "udp." ^ counter; du = counter;
      ulib = counter; span = ("udp", reason) }
  in
  [
    ip_row "runt" [ String.sub (datagram ok) 0 10 ] ~plexus:"ip.malformed"
      ~du:"malformed" ~ulib:"filtered_out" "runt";
    ip_row "IHL 6" [ datagram ~edit:(fun v -> View.set_u8 v 0 0x46) ok ]
      ~plexus:"ip.malformed" ~du:"malformed" ~ulib:"filtered_out" "bad_header";
    ip_row "bad header checksum"
      [ datagram ~fix:false
          ~edit:(fun v ->
            View.set_u16 v Proto.Ipv4.Off.cksum
              (View.get_u16 v Proto.Ipv4.Off.cksum lxor 1))
          ok ]
      ~plexus:"ip.bad_checksum" ~du:"bad_checksum" ~ulib:"bad_checksum"
      "bad_checksum";
    ip_row "not ours" [ datagram ~dst:(Proto.Ipaddr.v 10 0 0 99) ok ]
      ~plexus:"ip.not_ours" ~du:"not_ours" ~ulib:"filtered_out" "not_ours";
    ip_row "total_len past the frame"
      [ datagram ~edit:(set16 Proto.Ipv4.Off.total_len 2000) ok ]
      ~plexus:"ip.malformed" ~du:"malformed" ~ulib:"malformed" "bad_length";
    ip_row "total_len under 20"
      [ datagram ~edit:(set16 Proto.Ipv4.Off.total_len 10) ok ]
      ~plexus:"ip.malformed" ~du:"malformed" ~ulib:"malformed" "bad_length";
    ip_row "overlapping train"
      [ datagram ~id:77 ~more_fragments:true (String.make 104 'x');
        datagram ~id:77 ~frag_offset:1 (String.make 8 'x') ]
      ~plexus:"ip.malformed" ~du:"malformed" ~ulib:"malformed" "bad_fragment";
    ip_row "train past 65,535"
      [ datagram ~id:78 ~more_fragments:true (String.make 8 'y');
        datagram ~id:78 ~frag_offset:8189 (String.make 16 'y') ]
      ~plexus:"ip.malformed" ~du:"malformed" ~ulib:"malformed" "bad_fragment";
    udp_row "UDP runt" (datagram "abcd") ~counter:"malformed" "runt";
    udp_row "UDP bad length"
      (datagram (udp ~edit:(set16 Proto.Udp.Off.len 99) "hello"))
      ~counter:"malformed" "bad_length";
    udp_row "UDP bad checksum"
      (datagram (udp ~edit:(set16 Proto.Udp.Off.cksum 0xdead) "hello"))
      ~counter:"bad_checksum" "bad_checksum";
  ]

(* ---- the three stacks, behind one interface --------------------------- *)

type stack = {
  inject : string list -> unit;
      (** frame each IP datagram from A to B, transmit, run to quiescence *)
  counter : string -> int;  (** B's drop counter by name *)
  delivered : unit -> int;  (** datagrams B's port-7 socket received *)
  accepted : unit -> int;  (** connections B's port-80 listener accepted *)
  conns : unit -> int;  (** B's live TCP connections *)
  sent : unit -> int;  (** frames B transmitted *)
  faults : unit -> int;  (** contained handler faults on B *)
  drop_spans : unit -> (string * string) list option;
      (** B's [Drop] spans so far, (scope, reason), where B traces *)
}

let injector engine ~src_dev ~dst_dev ips =
  List.iter (fun ip -> Netsim.Dev.transmit src_dev (frame ~src_dev ~dst_dev ip)) ips;
  Sim.Engine.run engine

let plexus () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev s = Plexus.Ether_mgr.dev (Plexus.Stack.ether s) in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let ep =
    match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref 0 in
  let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got) in
  let accepted = ref 0 in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"srv" ~port:80 ~on_accept:(fun _ -> incr accepted) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let ip = Plexus.Ip_mgr.counters (Plexus.Stack.ip p.Experiments.Common.b)
  and u = Plexus.Udp_mgr.counters udp_b
  and t = Plexus.Tcp_mgr.counters (Plexus.Stack.tcp p.Experiments.Common.b) in
  let graph = Plexus.Stack.graph p.Experiments.Common.b in
  let ring = Observe.Trace.Ring.create () in
  Observe.Trace.set_sink
    (Plexus.Graph.trace (Plexus.Stack.graph p.Experiments.Common.b))
    (Observe.Trace.Ring ring);
  {
    inject =
      injector p.Experiments.Common.engine ~src_dev:(dev p.Experiments.Common.a)
        ~dst_dev:(dev p.Experiments.Common.b);
    counter =
      (function
      | "ip.malformed" -> ip.Plexus.Ip_mgr.malformed
      | "ip.bad_checksum" -> ip.Plexus.Ip_mgr.bad_checksum
      | "ip.not_ours" -> ip.Plexus.Ip_mgr.not_ours
      | "udp.malformed" -> u.Plexus.Udp_mgr.malformed
      | "udp.bad_checksum" -> u.Plexus.Udp_mgr.bad_checksum
      | "tcp.malformed" -> t.Plexus.Tcp_mgr.malformed
      | "tcp.bad_checksum" -> t.Plexus.Tcp_mgr.bad_checksum
      | "tcp.no_match" -> t.Plexus.Tcp_mgr.no_match
      | c -> Alcotest.failf "no plexus counter %s" c);
    delivered = (fun () -> !got);
    accepted = (fun () -> !accepted);
    conns =
      (fun () ->
        match
          Observe.Registry.find (Plexus.Graph.registry graph) "tcp.conns.occupancy"
        with
        | Some (Observe.Registry.Gauge g) -> g ()
        | _ -> Alcotest.fail "no tcp.conns.occupancy gauge");
    sent =
      (fun () -> (Netsim.Dev.counters (dev p.Experiments.Common.b)).Netsim.Dev.tx_packets);
    faults = (fun () -> Spin.Dispatcher.faults (Plexus.Graph.dispatcher graph));
    drop_spans =
      (fun () ->
        Some
          (List.filter_map
             (fun sp ->
               match sp.Observe.Trace.event with
               | Observe.Trace.Drop { scope; reason } -> Some (scope, reason)
               | _ -> None)
             (Observe.Trace.Ring.to_list ring)));
  }

let du () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let dev s = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host s)) in
  let sock =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref 0 in
  Osmodel.Du_stack.udp_set_recv sock (fun ~src:_ _ -> incr got);
  let accepted = ref 0 in
  (match
     Osmodel.Du_stack.tcp_listen p.Experiments.Common.dub ~port:80
       ~on_accept:(fun _ -> incr accepted) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let c = Osmodel.Du_stack.counters p.Experiments.Common.dub in
  {
    inject =
      injector p.Experiments.Common.du_engine ~src_dev:(dev p.Experiments.Common.dua)
        ~dst_dev:(dev p.Experiments.Common.dub);
    counter =
      (function
      | "malformed" -> c.Osmodel.Du_stack.malformed
      | "bad_checksum" -> c.Osmodel.Du_stack.bad_checksum
      | "not_ours" -> c.Osmodel.Du_stack.not_ours
      | "no_port" -> c.Osmodel.Du_stack.no_port
      | n -> Alcotest.failf "no du counter %s" n);
    delivered = (fun () -> !got);
    accepted = (fun () -> !accepted);
    conns = (fun () -> Osmodel.Du_stack.tcp_conns p.Experiments.Common.dub);
    sent =
      (fun () -> (Netsim.Dev.counters (dev p.Experiments.Common.dub)).Netsim.Dev.tx_packets);
    faults = (fun () -> 0);
    drop_spans = (fun () -> None);
  }

let ulib () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ()) ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  let sock =
    match Osmodel.Ulib.udp_bind ub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref 0 in
  Osmodel.Ulib.udp_set_recv sock (fun ~src:_ _ -> incr got);
  let c = Osmodel.Ulib.counters ub in
  {
    inject =
      injector engine ~src_dev:ea.Netsim.Network.dev ~dst_dev:eb.Netsim.Network.dev;
    counter =
      (function
      | "malformed" -> c.Osmodel.Ulib.malformed
      | "bad_checksum" -> c.Osmodel.Ulib.bad_checksum
      | "filtered_out" -> c.Osmodel.Ulib.filtered_out
      | n -> Alcotest.failf "no ulib counter %s" n);
    delivered = (fun () -> !got);
    accepted = (fun () -> 0);
    conns = (fun () -> 0);
    sent = (fun () -> (Netsim.Dev.counters eb.Netsim.Network.dev).Netsim.Dev.tx_packets);
    faults = (fun () -> 0);
    drop_spans = (fun () -> None);
  }

(* ---- one frame per drop reason ----------------------------------------- *)

let drop_table make pick () =
  let s = make () in
  List.iter
    (fun row ->
      let counter = pick row in
      let before = s.counter counter in
      s.inject row.ips;
      Alcotest.(check int) (row.name ^ ": counted on " ^ counter) (before + 1)
        (s.counter counter);
      Alcotest.(check int) (row.name ^ ": not delivered") 0 (s.delivered ()))
    rows;
  (match s.drop_spans () with
  | Some spans ->
      Alcotest.(check (list (pair string string))) "one Drop span per row"
        (List.map (fun row -> row.span) rows)
        spans
  | None -> ());
  s.inject [ datagram (udp "still here") ];
  Alcotest.(check int) "a later datagram is delivered" 1 (s.delivered ());
  Alcotest.(check int) "no contained fault" 0 (s.faults ())

(* ---- TCP: one segment per drop reason ----------------------------------- *)

(* The segments (TCP header + payload, inside an IP datagram from A),
   the counter each stack books the drop on, and the reason of the
   [Drop] span Plexus emits.  B listens on port 80, so the last three
   rows reach a listener: only an opening SYN that verifies may open a
   connection there. *)
type tcp_row = {
  t_name : string;
  seg : string;
  t_plexus : string;
  t_du : string;
  reason : string;
}

let tcp_rows =
  let row t_name seg ~plexus ~du reason =
    { t_name; seg; t_plexus = "tcp." ^ plexus; t_du = du; reason }
  and flip_cksum v =
    View.set_u16 v Proto.Tcp_wire.Off.cksum
      (View.get_u16 v Proto.Tcp_wire.Off.cksum lxor 1)
  and data_off x v = View.set_u8 v Proto.Tcp_wire.Off.data_off x in
  Proto.Tcp_wire.Flags.
    [
      row "TCP runt" (String.sub (tcp "x") 0 10) ~plexus:"malformed"
        ~du:"malformed" "runt";
      row "data offset under 20" (tcp ~edit:(data_off 0x40) "x")
        ~plexus:"malformed" ~du:"malformed" "bad_offset";
      row "data offset past the segment" (tcp ~edit:(data_off 0xf0) "x")
        ~plexus:"malformed" ~du:"malformed" "bad_offset";
      row "TCP bad checksum" (tcp ~edit:flip_cksum "x") ~plexus:"bad_checksum"
        ~du:"bad_checksum" "bad_checksum";
      row "corrupted SYN to a listener" (tcp ~flags:syn ~edit:flip_cksum "")
        ~plexus:"bad_checksum" ~du:"bad_checksum" "bad_checksum";
      row "SYN|ACK to a listener" (tcp ~flags:(syn + ack) "")
        ~plexus:"no_match" ~du:"no_port" "no_match";
      row "SYN|RST to a listener" (tcp ~flags:(syn + rst) "")
        ~plexus:"no_match" ~du:"no_port" "no_match";
    ]

let tcp_drop_table make pick () =
  let s = make () in
  List.iter
    (fun row ->
      let counter = pick row in
      let before = s.counter counter in
      s.inject [ datagram ~proto:Proto.Ipv4.proto_tcp row.seg ];
      Alcotest.(check int) (row.t_name ^ ": counted on " ^ counter) (before + 1)
        (s.counter counter);
      Alcotest.(check int) (row.t_name ^ ": no on_accept") 0 (s.accepted ());
      Alcotest.(check int) (row.t_name ^ ": no connection left") 0 (s.conns ());
      Alcotest.(check int) (row.t_name ^ ": nothing sent back") 0 (s.sent ()))
    tcp_rows;
  (match s.drop_spans () with
  | Some spans ->
      Alcotest.(check (list (pair string string))) "one Drop span per row"
        (List.map (fun row -> ("tcp", row.reason)) tcp_rows)
        spans
  | None -> ());
  s.inject
    [ datagram ~proto:Proto.Ipv4.proto_tcp (tcp ~flags:Proto.Tcp_wire.Flags.syn "") ];
  Alcotest.(check int) "a valid SYN is accepted" 1 (s.accepted ());
  Alcotest.(check bool) "and answered" true (s.sent () > 0);
  Alcotest.(check int) "no contained fault" 0 (s.faults ())

(* ---- differential: the three stacks agree on every mutated frame ------- *)

(* The header fields a mutation may hit, as (offset within the IP
   datagram, width in bytes).  UDP fields sit past the 20-byte IP
   header. *)
let fields =
  let ip = Proto.Ipv4.Off.[ (vihl, 1); (tos, 1); (total_len, 2); (id, 2);
                            (flags_frag, 2); (ttl, 1); (proto, 1); (cksum, 2);
                            (src, 4); (dst, 4) ]
  and u = Proto.Udp.Off.[ (src_port, 2); (dst_port, 2); (len, 2); (cksum, 2) ] in
  Array.of_list
    (ip @ List.map (fun (o, w) -> (Proto.Ipv4.header_len + o, w)) u)

(* A value for a field: small perturbations, boundary values and the
   addresses that matter (the host, broadcast). *)
let value_gen (off, width) =
  QCheck.Gen.(
    let max = (1 lsl (8 * width)) - 1 in
    if off = Proto.Ipv4.Off.dst then
      oneofl
        [ Proto.Ipaddr.to_int ip_b; Proto.Ipaddr.to_int Proto.Ipaddr.broadcast;
          Proto.Ipaddr.to_int ip_a; 0 ]
    else
      frequency
        [ (3, int_bound max); (1, oneofl [ 0; 1; max; 19; 20; 28; 29; 0x45 ]) ])

type mutation = { edits : (int * int) list; fix_ip : bool; fix_udp : bool }

let mutation_gen =
  QCheck.Gen.(
    let edit =
      int_bound (Array.length fields - 1) >>= fun i ->
      map (fun x -> (i, x)) (value_gen fields.(i))
    in
    map3
      (fun edits fix_ip fix_udp -> { edits; fix_ip; fix_udp })
      (list_size (1 -- 3) edit) bool bool)

let print_mutation m =
  Printf.sprintf "edits=[%s] fix_ip=%b fix_udp=%b"
    (String.concat "; "
       (List.map
          (fun (i, x) -> Printf.sprintf "@%d:=%d" (fst fields.(i)) x)
          m.edits))
    m.fix_ip m.fix_udp

let mutate m =
  let v = View.copy (View.of_string (datagram (udp "differential"))) in
  List.iter
    (fun (i, x) ->
      match fields.(i) with
      | off, 1 -> View.set_u8 v off x
      | off, 2 -> View.set_u16 v off x
      | off, _ -> View.set_u32 v off x)
    m.edits;
  if m.fix_udp then begin
    let dgram = View.shift v Proto.Ipv4.header_len in
    View.set_u16 dgram Proto.Udp.Off.cksum 0;
    View.set_u16 dgram Proto.Udp.Off.cksum
      (Proto.Udp.compute_cksum ~src:(Proto.Ipv4.get_src v)
         ~dst:(Proto.Ipv4.get_dst v) dgram)
  end;
  if m.fix_ip then fix_ip_cksum v;
  View.to_string v

let differential =
  QCheck.Test.make ~count:300 ~name:"plexus, du and ulib agree on mutated frames"
    (QCheck.make ~print:print_mutation mutation_gen)
    (fun m ->
      let ip = mutate m in
      let verdicts =
        List.map
          (fun (name, make) ->
            let s = make () in
            (* every frame of the exchange, replies included, is back in
               the pool once the stacks have drained *)
            let live0 = snd (Mbuf.stats ()) in
            s.inject [ ip ];
            let leaked = snd (Mbuf.stats ()) - live0 in
            if leaked <> 0 then
              QCheck.Test.fail_reportf "%s: %d mbufs still live after the frame"
                name leaked;
            s.delivered ())
          [ ("plexus", plexus); ("du", du); ("ulib", ulib) ]
      in
      match verdicts with
      | [ p; d; u ] when p = d && d = u -> true
      | _ ->
          QCheck.Test.fail_reportf "delivered (plexus, du, ulib) = (%s)"
            (String.concat ", " (List.map string_of_int verdicts)))

(* ---- ICMP errors -------------------------------------------------------- *)

(* The builder quotes the header it is given and 8 bytes of transport
   data, whatever the datagram's length. *)
let icmp_error_quotes_header () =
  let l4 = View.of_string (udp (String.make 300 'q')) in
  let h =
    Proto.Ipv4.make ~id:9 ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b
      ~payload_len:(View.length l4) ()
  in
  let pkt =
    Proto.Icmp.error ~mtype:Proto.Icmp.type_dest_unreachable
      ~code:Proto.Icmp.code_port_unreachable h l4
  in
  let v = View.ro (Mbuf.view pkt) in
  Alcotest.(check bool) "icmp checksum" true (Proto.Icmp.valid v);
  match Proto.Icmp.parse v with
  | None -> Alcotest.fail "icmp does not parse"
  | Some m ->
      Alcotest.(check int) "type" Proto.Icmp.type_dest_unreachable m.Proto.Icmp.mtype;
      Alcotest.(check int) "code" Proto.Icmp.code_port_unreachable m.Proto.Icmp.code;
      Alcotest.(check int) "header + 8 bytes" 28 (String.length m.Proto.Icmp.payload);
      let q = View.of_string m.Proto.Icmp.payload in
      Alcotest.(check bool) "quoted header checksum" true
        (Proto.Ipv4.checksum_valid q);
      (match Proto.Ipv4.parse q with
      | Some qh ->
          Alcotest.(check bool) "quoted header is the original" true (qh = h)
      | None -> Alcotest.fail "quoted header does not parse");
      Alcotest.(check string) "first 8 transport bytes"
        (View.get_string l4 ~off:0 ~len:8)
        (View.get_string q ~off:Proto.Ipv4.header_len ~len:8)

let bind_plexus udp port =
  match Plexus.Udp_mgr.bind udp ~owner:"app" ~port with
  | Ok ep -> ep
  | Error _ -> Alcotest.fail "bind failed"

(* A 5,000-byte datagram to a port nobody bound arrives in four
   fragments; the port unreachable B sends back quotes the reassembled
   datagram's header: A to B, UDP, its whole length, no fragment
   fields. *)
let plexus_unreachable_quotes_reassembled () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let ip_mgr_a = Plexus.Stack.ip p.Experiments.Common.a in
  let errors = ref [] in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Plexus.Graph.recv_event (Plexus.Ip_mgr.node ip_mgr_a))
      ~guard:(fun ctx ->
        match ctx.Plexus.Pctx.ip with
        | Some h -> h.Proto.Ipv4.proto = Proto.Ipv4.proto_icmp
        | None -> false)
      ~cost:Sim.Stime.zero
      (fun ctx -> errors := View.to_string (Plexus.Pctx.view ctx) :: !errors)
  in
  let client = bind_plexus udp_a 5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 4444) (String.make 5000 'f');
  Sim.Engine.run p.Experiments.Common.engine;
  match !errors with
  | [ e ] -> (
      match Proto.Icmp.parse (View.of_string e) with
      | None -> Alcotest.fail "icmp does not parse"
      | Some m -> (
          Alcotest.(check int) "port unreachable" Proto.Icmp.type_dest_unreachable
            m.Proto.Icmp.mtype;
          let q = View.of_string m.Proto.Icmp.payload in
          match Proto.Ipv4.parse q with
          | None -> Alcotest.fail "quoted header does not parse"
          | Some qh ->
              Alcotest.(check string) "src" (Proto.Ipaddr.to_string ip_a)
                (Proto.Ipaddr.to_string qh.Proto.Ipv4.src);
              Alcotest.(check string) "dst" (Proto.Ipaddr.to_string ip_b)
                (Proto.Ipaddr.to_string qh.Proto.Ipv4.dst);
              Alcotest.(check int) "proto" Proto.Ipv4.proto_udp qh.Proto.Ipv4.proto;
              Alcotest.(check int) "total length of the whole datagram"
                (Proto.Ipv4.header_len + Proto.Udp.header_len + 5000)
                qh.Proto.Ipv4.total_len;
              Alcotest.(check bool) "no fragment fields" false
                (qh.Proto.Ipv4.more_fragments || qh.Proto.Ipv4.frag_offset > 0);
              let l4 = View.shift q Proto.Ipv4.header_len in
              Alcotest.(check int) "quoted dst port" 4444
                (Proto.Udp.get_dst_port l4)))
  | l -> Alcotest.failf "%d ICMP messages reached A, expected 1" (List.length l)

(* A UDP datagram to 255.255.255.255 on a port nobody bound, as B's
   device receives it. *)
let broadcast_to_unbound_port =
  datagram ~dst:Proto.Ipaddr.broadcast
    (udp ~dst:Proto.Ipaddr.broadcast ~dst_port:4444 "to all")

(* RFC 1122 3.2.2: no ICMP error answers a broadcast. *)
let plexus_no_unreachable_for_broadcast () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev s = Plexus.Ether_mgr.dev (Plexus.Stack.ether s) in
  injector p.Experiments.Common.engine ~src_dev:(dev p.Experiments.Common.a)
    ~dst_dev:(dev p.Experiments.Common.b) [ broadcast_to_unbound_port ];
  let c = Plexus.Udp_mgr.counters (Plexus.Stack.udp p.Experiments.Common.b) in
  Alcotest.(check int) "no_port counted" 1 c.Plexus.Udp_mgr.no_port;
  Alcotest.(check int) "no unreachable sent" 0 c.Plexus.Udp_mgr.unreachable_sent;
  Alcotest.(check int) "nothing came back to A" 0
    (Netsim.Dev.counters (dev p.Experiments.Common.a)).Netsim.Dev.rx_packets

let du_no_unreachable_for_broadcast () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let dev s = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host s)) in
  injector p.Experiments.Common.du_engine ~src_dev:(dev p.Experiments.Common.dua)
    ~dst_dev:(dev p.Experiments.Common.dub) [ broadcast_to_unbound_port ];
  Alcotest.(check int) "no_port counted" 1
    (Osmodel.Du_stack.counters p.Experiments.Common.dub).Osmodel.Du_stack.no_port;
  Alcotest.(check int) "nothing came back to A" 0
    (Netsim.Dev.counters (dev p.Experiments.Common.dua)).Netsim.Dev.rx_packets

(* ---- oversize sends ------------------------------------------------------ *)

let too_big = String.make (Proto.Udp.max_payload + 1) 'o'

let raises_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: an oversize send was accepted" name
  | exception Invalid_argument _ -> ()

(* Every stack refuses a datagram past 65,507 bytes at the call, before
   anything is queued: nothing reaches the wire.  The largest legal one
   still arrives whole. *)
let plexus_refuses_oversize () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a
  and udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let client = bind_plexus udp_a 5000 and server = bind_plexus udp_b 7 in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        got := Plexus.Pctx.payload_len ctx)
  in
  raises_invalid "send" (fun () ->
      Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) too_big);
  raises_invalid "send_mbuf" (fun () ->
      Plexus.Udp_mgr.send_mbuf udp_a client ~dst:(ip_b, 7)
        (Mbuf.of_string too_big));
  raises_invalid "send_multi" (fun () ->
      Plexus.Udp_mgr.send_multi udp_a client ~dsts:[ (ip_b, 7) ] too_big);
  Sim.Engine.run p.Experiments.Common.engine;
  let dev_a = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.a) in
  Alcotest.(check int) "nothing transmitted" 0
    (Netsim.Dev.counters dev_a).Netsim.Dev.tx_packets;
  Alcotest.(check int) "nothing counted as sent" 0
    (Plexus.Udp_mgr.counters udp_a).Plexus.Udp_mgr.tx;
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7)
    (String.make Proto.Udp.max_payload 'm');
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "the largest datagram arrives whole"
    Proto.Udp.max_payload !got

let du_refuses_oversize () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let sock =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  raises_invalid "udp_sendto" (fun () ->
      Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua sock ~dst:(ip_b, 7)
        too_big);
  Sim.Engine.run p.Experiments.Common.du_engine;
  let dev = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host p.Experiments.Common.dua)) in
  Alcotest.(check int) "nothing transmitted" 0
    (Netsim.Dev.counters dev).Netsim.Dev.tx_packets

let ulib_refuses_oversize () =
  let engine = Sim.Engine.create () in
  let ea, _ =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ()) ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let sock =
    match Osmodel.Ulib.udp_bind ua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  raises_invalid "udp_sendto" (fun () ->
      Osmodel.Ulib.udp_sendto ua sock ~dst:(ip_b, 7) too_big);
  Sim.Engine.run engine;
  Alcotest.(check int) "nothing counted as sent" 0
    (Osmodel.Ulib.counters ua).Osmodel.Ulib.tx;
  Alcotest.(check int) "nothing transmitted" 0
    (Netsim.Dev.counters ea.Netsim.Network.dev).Netsim.Dev.tx_packets

(* ---- reassembly: expires old entries ------------------------------------ *)

(* 65,536 lone first fragments with distinct ids, delivered as frames
   one every 250 µs (about what a host takes to receive one).  Past
   1,024 pending trains the oldest is evicted, so while the flood runs
   the trains and the frames they hold stay within the budget; once it
   stops, the last 1,024 trains expire on time and every frame goes
   back to the pool. *)
let frag_flood engine ~src_dev ~dst_dev frag () =
  let live () = snd (Mbuf.stats ()) in
  let base = live () and gap = Sim.Stime.us 250 in
  for batch = 0 to 63 do
    let t0 = Sim.Engine.now engine in
    for i = 0 to 1023 do
      let ip = datagram ~id:((batch * 1024) + i) ~more_fragments:true "lonefrag" in
      Sim.Engine.post engine ~at:(Sim.Stime.add t0 (Sim.Stime.mul gap i))
        (fun () -> Netsim.Dev.transmit src_dev (frame ~src_dev ~dst_dev ip))
    done;
    Sim.Engine.run engine ~until:(Sim.Stime.add t0 (Sim.Stime.mul gap 1024));
    if Proto.Ip_frag.pending_count frag > 1024 || live () > base + 1024 then
      Alcotest.failf "batch %d: %d trains pending, %d frames live over %d" batch
        (Proto.Ip_frag.pending_count frag) (live () - base) base
  done;
  Alcotest.(check (pair int int)) "after the flood: pending, evicted"
    (1024, 65_536 - 1024)
    (Proto.Ip_frag.pending_count frag, Proto.Ip_frag.evicted_count frag);
  Sim.Engine.run engine;
  Alcotest.(check (pair int int)) "then: pending, timed out" (0, 1024)
    (Proto.Ip_frag.pending_count frag, Proto.Ip_frag.timeout_count frag);
  Alcotest.(check int) "every frame back in the pool" base (live ())

let plexus_frag_flood () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev s = Plexus.Ether_mgr.dev (Plexus.Stack.ether s) in
  frag_flood p.Experiments.Common.engine ~src_dev:(dev p.Experiments.Common.a)
    ~dst_dev:(dev p.Experiments.Common.b)
    (Plexus.Ip_mgr.frag_state (Plexus.Stack.ip p.Experiments.Common.b))
    ()

let du_frag_flood () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let dev s = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host s)) in
  frag_flood p.Experiments.Common.du_engine ~src_dev:(dev p.Experiments.Common.dua)
    ~dst_dev:(dev p.Experiments.Common.dub)
    (Osmodel.Du_stack.frag_state p.Experiments.Common.dub)
    ()

(* ---- ARP: learns only what RFC 826 lets it ------------------------------ *)

(* 10,000 broadcast ARP requests from distinct senders, one every
   250 µs, all from the peer's device and naming the peer's MAC, so a
   datagram the flooded host later sends to a learned sender reaches the
   peer and is counted there as not its own.  The requests ask for
   [target]. *)
let flood_senders = 10_000
let flood_sender k = Proto.Ipaddr.v 10 77 (k / 250) (1 + (k mod 250))

let arp_flood engine ~src_dev ~target =
  let gap = Sim.Stime.us 250 and t0 = Sim.Engine.now engine in
  for k = 0 to flood_senders - 1 do
    let m =
      Proto.Arp.to_packet
        (Proto.Arp.request ~sender_mac:(Netsim.Dev.mac src_dev)
           ~sender_ip:(flood_sender k) ~target_ip:target)
    in
    Proto.Ether.encapsulate m
      {
        Proto.Ether.dst = Proto.Ether.Mac.broadcast;
        src = Netsim.Dev.mac src_dev;
        etype = Proto.Ether.etype_arp;
      };
    Sim.Engine.post engine ~at:(Sim.Stime.add t0 (Sim.Stime.mul gap k))
      (fun () -> Netsim.Dev.transmit src_dev m)
  done;
  Sim.Engine.run engine

let other_ip = Proto.Ipaddr.v 10 9 9 9

(* Plexus host B's cache holds its primed peer and nothing else after a
   flood for another address; a flood for B itself adds at most 1,024
   senders; the primed peer still resolves either way. *)
let plexus_arp_flood target () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let cache = Plexus.Arp_mgr.cache (Plexus.Stack.arp b) in
  let primed = Proto.Arp.Cache.size cache in
  arp_flood engine ~src_dev:(Plexus.Ether_mgr.dev (Plexus.Stack.ether a)) ~target;
  let learned = Proto.Arp.Cache.size cache - primed in
  if Proto.Ipaddr.equal target ip_b then begin
    if learned > 1024 then
      Alcotest.failf "%d senders learned from requests for B (cap 1024)" learned
  end
  else Alcotest.(check int) "senders learned from requests for another host" 0 learned;
  let requests = Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp b) in
  let resolved = ref false in
  Plexus.Arp_mgr.resolve (Plexus.Stack.arp b) ip_a (fun _ -> resolved := true);
  Alcotest.(check (pair bool int)) "primed peer resolves without a request"
    (true, requests)
    (!resolved, Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp b))

(* Digital UNIX keeps its caches private, so B's is read through the
   wire: B sends one datagram to every flood sender, and the peer counts
   the ones B addressed to its MAC (a cache hit) as not its own, while a
   miss goes out as an ARP request instead.  A datagram to the primed
   peer is delivered. *)
let du_arp_flood target () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.du_engine in
  let a = p.Experiments.Common.dua and b = p.Experiments.Common.dub in
  let dev s = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host s)) in
  arp_flood engine ~src_dev:(dev a) ~target;
  let sock =
    match Osmodel.Du_stack.udp_bind b ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let not_ours0 = (Osmodel.Du_stack.counters a).Osmodel.Du_stack.not_ours in
  for k = 0 to flood_senders - 1 do
    Osmodel.Du_stack.udp_sendto b sock ~dst:(flood_sender k, 9) "x";
    Sim.Engine.run engine
  done;
  let hits = (Osmodel.Du_stack.counters a).Osmodel.Du_stack.not_ours - not_ours0 in
  if Proto.Ipaddr.equal target ip_b then begin
    if hits > 1024 then
      Alcotest.failf "%d senders learned from requests for B (cap 1024)" hits
  end
  else Alcotest.(check int) "senders learned from requests for another host" 0 hits;
  let echo =
    match Osmodel.Du_stack.udp_bind a ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref 0 in
  Osmodel.Du_stack.udp_set_recv echo (fun ~src:_ _ -> incr got);
  Osmodel.Du_stack.udp_sendto b sock ~dst:(ip_a, 7) "x";
  Sim.Engine.run engine;
  Alcotest.(check int) "primed peer still reached" 1 !got

let suite =
  let pick_plexus r = r.plexus and pick_du r = r.du and pick_ulib r = r.ulib in
  [
    ( "receive.drops",
      [
        tc "plexus: one frame per reason" (drop_table plexus pick_plexus);
        tc "digital unix: one frame per reason" (drop_table du pick_du);
        tc "user-level library: one frame per reason" (drop_table ulib pick_ulib);
        tc "plexus: one TCP segment per reason"
          (tcp_drop_table plexus (fun r -> r.t_plexus));
        tc "digital unix: one TCP segment per reason"
          (tcp_drop_table du (fun r -> r.t_du));
      ] );
    ( "receive.icmp",
      [
        tc "error quotes the IP header and 8 bytes" icmp_error_quotes_header;
        tc "plexus unreachable quotes a reassembled datagram"
          plexus_unreachable_quotes_reassembled;
        tc "plexus: no unreachable for a broadcast"
          plexus_no_unreachable_for_broadcast;
        tc "digital unix: no unreachable for a broadcast"
          du_no_unreachable_for_broadcast;
      ] );
    ( "receive.oversize",
      [
        tc "plexus refuses a send past 65,507 bytes" plexus_refuses_oversize;
        tc "digital unix refuses a send past 65,507 bytes" du_refuses_oversize;
        tc "user-level library refuses a send past 65,507 bytes"
          ulib_refuses_oversize;
      ] );
    ( "receive.reassembly",
      [
        tc "plexus: a fragment flood expires old entries" plexus_frag_flood;
        tc "digital unix: a fragment flood expires old entries" du_frag_flood;
      ] );
    ( "receive.arp",
      [
        tc "plexus: a flood for another host teaches nothing"
          (plexus_arp_flood other_ip);
        tc "plexus: a flood for this host learns at most 1,024"
          (plexus_arp_flood ip_b);
        tc "digital unix: a flood for another host teaches nothing"
          (du_arp_flood other_ip);
        tc "digital unix: a flood for this host learns at most 1,024"
          (du_arp_flood ip_b);
      ] );
    ( "receive.differential",
      [
        QCheck_alcotest.to_alcotest ~speed_level:`Quick
          ~rand:(Random.State.make [| 22 |]) differential;
      ] );
  ]
