(* The Plexus protocol graph (paper section 3, Figure 1).

   Nodes are protocols; each node owns a [PacketRecv] event.  An edge from
   parent to child exists when the child's manager installs a guarded
   handler on the parent's event: the guard demultiplexes one layer, the
   handler pushes the packet up.  The graph object records the structure
   for introspection (and renders it as DOT), while the dispatcher holds
   the operational state. *)

type node = {
  node_name : string;
  recv : Pctx.t Spin.Dispatcher.event;
}

type t = {
  host : Netsim.Host.t;
  disp : Spin.Dispatcher.t;
  mutable nodes : node list;
  mutable edges : (string * string * string) list; (* parent, child, label *)
}

let create host =
  {
    host;
    disp = Spin.Kernel.dispatcher (Netsim.Host.kernel host);
    nodes = [];
    edges = [];
  }

let host t = t.host
let dispatcher t = t.disp
let kernel t = Netsim.Host.kernel t.host
let registry t = Spin.Kernel.registry (kernel t)
let trace t = Spin.Kernel.trace (kernel t)
let flight t = Spin.Kernel.flight (kernel t)

let node t name =
  match List.find_opt (fun n -> n.node_name = name) t.nodes with
  | Some n -> n
  | None ->
      let recv = Spin.Dispatcher.event t.disp (name ^ ".PacketRecv") in
      (* Every protocol event demultiplexes packet contexts, so they all
         share one key extractor: the demux dimensions the packet
         presents at its current layer (EtherType, IP protocol, ports).
         Managers that know their guard's literals install with ~keys.
         The extractor fills a per-event scratch array in place, so
         steady-state dispatch allocates nothing. *)
      Spin.Dispatcher.set_keyvfn recv ~dims:Filter.num_key_dims
        Filter.read_context_keys;
      (* ... and one flow-signature extractor, so any node can serve as
         a flow-path cache root when the kernel enables caching.  Only
         fresh, unfragmented frames are signable; everything else
         bypasses the cache (Filter.write_signature).  The writer fills
         the event's scratch in place, so a cache probe allocates
         nothing. *)
      Spin.Dispatcher.set_sigfn recv ~len:Filter.signature_len
        Filter.write_signature;
      (* ... and one frame accessor: the dispatcher leases the frame
         while a demux or delivery on it is queued, and the sampled
         packet id rides on it, so every node in the graph attributes
         its raise/handler stages to the same end-to-end timeline. *)
      Spin.Dispatcher.set_framefn recv (fun ctx -> ctx.Pctx.pkt);
      let n = { node_name = name; recv } in
      t.nodes <- t.nodes @ [ n ];
      n

let find_node t name = List.find_opt (fun n -> n.node_name = name) t.nodes

let recv_event (n : node) = n.recv

let add_edge t ~parent ~child ~label =
  t.edges <- t.edges @ [ (parent.node_name, child, label) ]

let remove_edge t ~parent ~child =
  t.edges <-
    List.filter (fun (p, c, _) -> not (p = parent && c = child)) t.edges

(* Flight-recorder terminal stages: a sampled packet's timeline ends
   here, with end-to-end latency from ingress as the stage duration. *)
let finish_flight t ctx stage =
  let fl = flight t and pkt = Mbuf.mark ctx.Pctx.pkt in
  if Observe.Flight.enabled fl && pkt > 0 then begin
    let at_ns = Sim.Stime.to_ns (Spin.Kernel.now (kernel t)) in
    Observe.Flight.note fl ~pkt ~at_ns
      ~dur_ns:(Observe.Flight.since_ingress fl ~pkt ~at_ns)
      stage;
    Observe.Flight.finish fl ~pkt
  end

(* A manager's drop: a [Drop] span, and the end of a sampled packet's
   timeline.  Neither record is built unless someone is looking. *)
let drop t ctx ~scope ~reason =
  let tr = trace t in
  if Observe.Trace.active tr then
    Observe.Trace.emit tr
      {
        Observe.Trace.at_ns = Sim.Stime.to_ns (Spin.Kernel.now (kernel t));
        event = Observe.Trace.Drop { scope; reason };
      };
  if Mbuf.mark ctx.Pctx.pkt > 0 then
    finish_flight t ctx (Observe.Flight.Drop { scope; reason })

let nodes t = List.map (fun n -> n.node_name) t.nodes
let edges t = t.edges

(* Switch every node's delivery mode at once — the interrupt vs. thread
   comparison of Figure 5. *)
let set_delivery t mode =
  List.iter (fun n -> Spin.Dispatcher.set_mode n.recv mode) t.nodes

let to_dot t =
  let b = Buffer.create 256 in
  Buffer.add_string b "digraph plexus {\n  rankdir=BT;\n";
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "  %S;\n" n.node_name))
    t.nodes;
  List.iter
    (fun (p, c, l) ->
      Buffer.add_string b (Printf.sprintf "  %S -> %S [label=%S];\n" p c l))
    t.edges;
  Buffer.add_string b "}\n";
  Buffer.contents b
