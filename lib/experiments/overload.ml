(* Overload resilience: goodput under a 2x blast, with and without the
   device's interrupt admission control.

   {!Livelock} measures how interrupt-level protocol work starves a
   compute application; this experiment measures the flip side — what the
   {e receiver itself} gets done.  The victim's UDP sink hands datagrams
   to an application that costs thread-priority CPU per datagram (parse,
   copy into a store: the typical server loop).  Under a blast at twice
   the victim's service capacity:

   - unmitigated, every arriving frame takes the full receive interrupt,
     interrupt work alone exceeds the CPU, the application thread never
     runs, and goodput collapses toward zero — the classic receive
     livelock;
   - with admission control ({!Netsim.Dev.set_admission}), only a small
     budget of frames per window takes the interrupt path; the rest are
     parked (cheaply) on the deferred queue and drained in batches at
     thread priority, and frames beyond the queue limit are shed {e
     before} any interrupt cost is paid.  Delivery now competes fairly
     with the application, so admitted datagrams are also consumed:
     goodput degrades gracefully instead of collapsing.

   The CI gate requires mitigated goodput >= 2x unmitigated at 2x
   offered overload (in practice the ratio is far larger). *)

type point = {
  offered_pps : int;
  unmitigated_goodput : float;  (** consumed datagrams/s, admission off *)
  mitigated_goodput : float;  (** consumed datagrams/s, admission on *)
}

let ratio p =
  if p.unmitigated_goodput <= 0. then infinity
  else p.mitigated_goodput /. p.unmitigated_goodput

(* Per-datagram application work: dominates the protocol path, as real
   request processing does. *)
let app_work = Sim.Stime.us 50

(* A pre-built valid frame: Ethernet + IP + UDP to the victim port. *)
let build_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~port =
  let pkt = Mbuf.of_string (String.make 18 'o') in
  Proto.Udp.encapsulate pkt ~src:src_ip ~dst:dst_ip ~src_port:5000
    ~dst_port:port;
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_udp ~src:src_ip ~dst:dst_ip
       ~payload_len:(Mbuf.length pkt) ());
  Proto.Ether.encapsulate pkt
    { Proto.Ether.dst = dst_mac; src = src_mac; etype = Proto.Ether.etype_ip };
  Mbuf.to_string pkt

let warmup = Sim.Stime.ms 100
let horizon = Sim.Stime.ms 600

let run_one ~mitigated ~offered_pps () =
  let engine = Sim.Engine.create () in
  (* T3: enough wire capacity that the victim's CPU — not the link — is
     the bottleneck, so "2x overload" means 2x its service rate. *)
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ())
      ~a:("blaster", Common.ip_a) ~b:("victim", Common.ip_b)
  in
  if mitigated then
    Netsim.Dev.set_admission ~budget:4 ~window:(Sim.Stime.ms 1)
      ~defer_limit:64 eb.Netsim.Network.dev;
  let victim = Plexus.Stack.build eb.Netsim.Network.host in
  let udp = Plexus.Stack.udp victim in
  let victim_cpu = Netsim.Host.cpu eb.Netsim.Network.host in
  (* The application: a bounded request queue fed by the sink handler,
     consumed at thread priority.  Only a {e consumed} datagram counts as
     goodput. *)
  let q = Queue.create () in
  let q_limit = 256 in
  let consumed = ref 0 in
  let consumed_at_warmup = ref 0 in
  let draining = ref false in
  let rec consume () =
    if Queue.is_empty q then draining := false
    else
      Sim.Cpu.submit victim_cpu Sim.Cpu.Thread ~cost:app_work (fun () ->
          ignore (Queue.pop q);
          incr consumed;
          consume ())
  in
  (match Plexus.Udp_mgr.bind udp ~owner:"server" ~port:9 with
  | Error _ -> assert false
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp ep (fun _ ->
            if Queue.length q < q_limit then Queue.push () q;
            if not !draining then begin
              draining := true;
              consume ()
            end)
      in
      ());
  let frame =
    build_frame
      ~src_mac:(Netsim.Dev.mac ea.Netsim.Network.dev)
      ~dst_mac:(Netsim.Dev.mac eb.Netsim.Network.dev)
      ~src_ip:Common.ip_a ~dst_ip:Common.ip_b ~port:9
  in
  let period_ns = 1_000_000_000 / offered_pps in
  let rec blast () =
    if Sim.Stime.compare (Sim.Engine.now engine) horizon < 0 then begin
      Netsim.Dev.transmit ea.Netsim.Network.dev (Mbuf.of_string frame);
      ignore (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.ns period_ns) blast)
    end
  in
  blast ();
  ignore
    (Sim.Engine.schedule engine ~at:warmup (fun () ->
         consumed_at_warmup := !consumed));
  Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
  let window_s = Sim.Stime.to_us (Sim.Stime.sub horizon warmup) /. 1e6 in
  float_of_int (!consumed - !consumed_at_warmup) /. window_s

(* The victim's service capacity is ~1/(rx path + app work) per datagram;
   with 50 us app work and ~75 us of driver+stack, ~8k/s.  16k pps offered
   is 2x that while staying well inside the T3's wire capacity. *)
let default_offered_pps = 16_000

let run ?(offered_pps = default_offered_pps) () =
  {
    offered_pps;
    unmitigated_goodput = run_one ~mitigated:false ~offered_pps ();
    mitigated_goodput = run_one ~mitigated:true ~offered_pps ();
  }

let print ?offered_pps () =
  Common.print_header
    "Overload: UDP goodput at 2x capacity, admission control off vs. on";
  let p = run ?offered_pps () in
  Printf.printf "%14s %18s %18s %8s\n" "offered pkt/s" "unmitigated/s"
    "mitigated/s" "ratio";
  Printf.printf "%14d %18.0f %18.0f %8s\n" p.offered_pps p.unmitigated_goodput
    p.mitigated_goodput
    (let r = ratio p in
     if r = infinity then "inf" else Printf.sprintf "%.1fx" r);
  Printf.printf
    "(goodput = datagrams fully consumed by the thread-priority application.\n\
    \ Unmitigated, interrupt servicing alone exceeds the CPU and the\n\
    \ application starves; admission control defers past a small budget and\n\
    \ sheds before interrupt cost, so delivery and consumption share the CPU.)\n";
  p
