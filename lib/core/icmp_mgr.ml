(* The ICMP protocol manager: answers echo requests in the kernel. *)

type t = {
  ip : Ip_mgr.t;
  graph : Graph.t;
  mutable echos_answered : int;
  mutable unreachables_received : int;
  mutable rx : int;
}

let proto_guard ctx =
  match ctx.Pctx.ip with
  | Some h -> h.Proto.Ipv4.proto = Proto.Ipv4.proto_icmp
  | None -> false

let create graph ip =
  let t = { ip; graph; echos_answered = 0; unreachables_received = 0; rx = 0 } in
  let costs = Netsim.Host.costs (Graph.host graph) in
  let node = Graph.node graph "icmp" in
  Graph.add_edge graph ~parent:(Ip_mgr.node ip) ~child:"icmp" ~label:"proto=1";
  ignore node;
  let handle ctx =
    t.rx <- t.rx + 1;
    let v = Pctx.view ctx in
    if Proto.Icmp.valid v then begin
      match Proto.Icmp.parse v with
      | Some m when m.Proto.Icmp.mtype = Proto.Icmp.type_echo_request ->
          t.echos_answered <- t.echos_answered + 1;
          let reply = Proto.Icmp.to_packet (Proto.Icmp.echo_reply_of m) in
          let dst = (Pctx.ip_exn ctx).Proto.Ipv4.src in
          Ip_mgr.send ip (Ip_mgr.prio ip ~dst) ~proto:Proto.Ipv4.proto_icmp ~dst
            reply
      | Some m when m.Proto.Icmp.mtype = Proto.Icmp.type_dest_unreachable ->
          t.unreachables_received <- t.unreachables_received + 1
      | _ -> ()
    end
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Graph.recv_event (Ip_mgr.node ip))
      ~guard:proto_guard
      ~keys:[ Filter.ip_proto_key Proto.Ipv4.proto_icmp ]
      ~exact:true ~cacheable:true ~label:"icmp"
      ~cost:costs.Netsim.Costs.layer.udp_in
      ~dyncost:(fun ctx ->
        if Pctx.data_touched_by_device ctx then Sim.Stime.zero
        else
          Netsim.Costs.per_byte costs.Netsim.Costs.layer.cksum_ns_per_byte
            (Pctx.payload_len ctx))
      handle
  in
  t

let echos_answered t = t.echos_answered
let unreachables_received t = t.unreachables_received
let rx t = t.rx
