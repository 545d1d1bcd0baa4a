(* udp_ext: closed-loop one-way 64-B datagrams through the extension
   trio, flow-path cache off (the stack default).  The smallest frame,
   so per-packet cost dominates.  A frame is one datagram sent. *)

let nports = 64
let ports = Array.init nports (fun i -> 7000 + i)

(* One round is [round_len] datagrams; the first [det_rounds] rounds are
   the deterministic leg the simulated results and words per frame come
   from, whatever the host speed. *)
let round_len = 2_000
let det_rounds = 50
let setup_reps = 11

(* The bytes [acct] counts per datagram: the ip event's payload, which
   is the 8-B UDP header and the 64-B application payload. *)
let acct_per_datagram = Proto.Udp.header_len + Udp_world.payload_len

let setup () =
  let w = Udp_world.create ~flowcache:false ~ports in
  Udp_world.warm w;
  w

let round w rng (t : Pstat.tally) =
  for _ = 1 to round_len do
    let port = ports.(Sim.Rng.int rng nports) in
    t.attempted <- t.attempted + 1;
    if not (Udp_world.send_one w port) then Pstat.fail t "datagram not delivered to its port"
  done;
  round_len

(* The checks that cover every datagram of the run. *)
let check (w : Udp_world.t) (t : Pstat.tally) =
  if w.delivered <> t.attempted then
    Pstat.fail t ~count:0
      (Printf.sprintf "delivered %d of %d sent" w.delivered t.attempted);
  let expected = t.attempted * (acct_per_datagram + !Pstat.tamper) in
  if !(w.acct_bytes) <> expected then
    Pstat.fail t (Printf.sprintf "acct counted %d bytes, expected %d" !(w.acct_bytes) expected);
  if !(w.tap_frames) <> t.attempted then
    Pstat.fail t (Printf.sprintf "tap saw %d frames of %d" !(w.tap_frames) t.attempted)

let end_to_end ~seed ~seconds t =
  Hostcost.setup_during ~reps:setup_reps ~every:10 setup @@ fun w prepare ->
  let rng = Sim.Rng.create seed in
  let words = ref 0. and sim_ns = ref 0 and bytes = ref 0 and heap = ref 0. in
  let s0 = Sim.Stime.to_ns (Sim.Engine.now w.engine) in
  let win =
    Hostcost.window ~prepare ~seconds ~min_rounds:det_rounds (fun k ->
        w.recording <- k < det_rounds;
        let w0 = Hostcost.minor_words () in
        let n = round w rng t in
        if w.recording then words := !words +. (Hostcost.minor_words () -. w0);
        if k = det_rounds - 1 then begin
          sim_ns := Sim.Stime.to_ns (Sim.Engine.now w.engine) - s0;
          bytes := w.delivered_bytes;
          heap := Hostcost.peak_heap_mb ()
        end;
        n)
  in
  check w t;
  let lat = Hostcost.to_floats w.latencies ~scale:1e-3 in
  ( [
      ("frames_per_ref_s", win.Hostcost.ref_rate);
      ("minor_words_per_frame", Pstat.per_frame ~frames:(det_rounds * round_len) !words);
      ("peak_heap_mb", !heap);
      ("sim_goodput_mbps", float_of_int (!bytes * 8) /. (float_of_int !sim_ns /. 1e3));
    ],
    lat )

let traced ~seed ~seconds t =
  let w = setup () in
  let rng = Sim.Rng.create seed in
  let win =
    Layers.windows ~seconds ~engine:w.engine ~stacks:[ w.a; w.b ]
      ~busy_cpu:(Netsim.Host.cpu (Plexus.Stack.host w.b))
      (fun _ -> round w rng t)
  in
  check w t;
  (* Per-call costs, on a second testbed so the counted one is left as
     the workload made it. *)
  let budget = seconds /. 2. /. 9. in
  let m = setup () in
  let frames =
    Layers.capture ~stacks:[ m.b ] ~limit:256 (fun () ->
        Array.iteri (fun i _ -> ignore (Udp_world.send_one m ports.(i mod nports) : bool))
          (Array.make 256 ()))
  in
  let dev = Udp_world.rx_dev m.b in
  let ip_ctx s =
    let c = Plexus.Pctx.advance (Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string s))) Proto.Ether.header_len in
    match Proto.Ipv4.parse (Plexus.Pctx.view c) with
    | Some ih -> Plexus.Pctx.with_ip c ih
    | None -> failwith "perfbench: captured frame has no IPv4 header"
  in
  let ctxs = Array.map ip_ctx frames in
  let base = Layers.common_costs ~budget in
  let costs =
    {
      base with
      Layers.ns_raise = Layers.raise ~budget ~drain:(fun () -> Sim.Engine.run m.engine) ~dev (Udp_world.ether_event m.b) frames;
      ns_parse = Layers.parse ~budget frames;
      ns_cksum_kb = Layers.cksum_per_kb ~budget frames;
      ns_ext =
        Hostcost.ns_per_op ~budget (fun () ->
            let t0 = Hostcost.now () in
            Array.iter m.trio ctxs;
            (Hostcost.now () -. t0, Array.length ctxs));
    }
  in
  let tx =
    Hostcost.ns_per_op ~budget (fun () ->
        (* at most one device queue's worth per batch, so none drop *)
        let ms = Array.init 8 (fun _ -> Mbuf.alloc Udp_world.payload_len) in
        let t0 = Hostcost.now () in
        Array.iteri
          (fun i mb ->
            Plexus.Udp_mgr.send_mbuf m.udp_a m.client ~dst:(Udp_world.ip_b, ports.(i)) mb)
          ms;
        let dt = Hostcost.now () -. t0 in
        Sim.Engine.run m.engine;
        (dt, Array.length ms))
  in
  let rx =
    Layers.rx ~budget ~engine:m.engine ~dev (Array.sub frames 0 32)
  in
  Layers.ledger win costs ~frame_bytes:(Layers.mean_length frames)
  @ [
      ("plexus.tx_host_ns_per_frame", tx);
      ("plexus.rx_host_ns_per_frame", rx);
    ]
