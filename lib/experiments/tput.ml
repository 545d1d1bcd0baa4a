(* Section 4.2: TCP throughput.

   Paper values: Ethernet 8.9 Mb/s on both systems (wire-limited); Fore
   ATM 33 Mb/s under Plexus vs 27.9 Mb/s under DIGITAL UNIX (CPU-limited
   by programmed I/O, where the extra user/kernel copy hurts); the ATM
   driver-to-driver ceiling is ~53 Mb/s.  The T3's TCP number is absent
   from the paper (a DMA-support bug); we measure it anyway. *)

type row = {
  device : string;
  plexus_mbps : float;
  du_mbps : float;
  paper_plexus : float option;
  paper_du : float option;
  gap_p50_us : float;  (* inter-chunk arrival gap at the Plexus sink *)
  gap_p99_us : float;
}

let transfer_bytes = 2_000_000

(* Bulk transfer over Plexus: connect A->B, push [bytes], record the time
   from connection establishment to full delivery at B.  Also returns the
   distribution of gaps between successive chunk arrivals at the sink —
   recorded into a log-bucketed histogram, not a sample list: a bulk
   transfer delivers an unbounded number of chunks. *)
let plexus_transfer_timed ?(bytes = transfer_bytes) params =
  let p = Common.plexus_pair params in
  let engine = p.Common.engine in
  let received = ref 0 in
  let start_at = ref Sim.Stime.zero in
  let done_at = ref None in
  let gaps = Sim.Stats.Histogram.create () in
  let last_arrival = ref None in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Common.b) ~owner:"sink"
       ~port:5001
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             let now = Sim.Engine.now engine in
             (match !last_arrival with
             | Some prev ->
                 Sim.Stats.Histogram.record gaps
                   (Sim.Stime.to_ns (Sim.Stime.sub now prev))
             | None -> ());
             last_arrival := Some now;
             received := !received + View.length data;
             if !received >= bytes && !done_at = None then
               done_at := Some now))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Common.a) ~owner:"source"
       ~dst:(Common.ip_b, 5001) ()
   with
  | Error _ -> assert false
  | Ok conn ->
      Plexus.Tcp_mgr.on_established conn (fun () ->
          start_at := Sim.Engine.now engine;
          Plexus.Tcp_mgr.send conn (String.make bytes 'd')));
  Sim.Engine.run engine ~until:(Sim.Stime.s 60) ~max_events:50_000_000;
  let mbps =
    match !done_at with
    | None -> nan
    | Some t ->
        Common.mbps ~bytes
          ~elapsed_us:(Sim.Stime.to_us (Sim.Stime.sub t !start_at))
  in
  (mbps, gaps)

let du_transfer ?(bytes = transfer_bytes) params =
  let p = Common.du_pair params in
  let engine = p.Common.du_engine in
  let received = ref 0 in
  let start_at = ref Sim.Stime.zero in
  let done_at = ref None in
  (match
     Osmodel.Du_stack.tcp_listen p.Common.dub ~port:5001
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             received := !received + View.length data;
             if !received >= bytes && !done_at = None then
               done_at := Some (Sim.Engine.now engine)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let conn = Osmodel.Du_stack.tcp_connect p.Common.dua ~dst:(Common.ip_b, 5001) () in
  Osmodel.Du_stack.on_established conn (fun () ->
      start_at := Sim.Engine.now engine;
      Osmodel.Du_stack.tcp_send p.Common.dua conn (String.make bytes 'd'));
  Sim.Engine.run engine ~until:(Sim.Stime.s 60) ~max_events:50_000_000;
  match !done_at with
  | None -> nan
  | Some t ->
      Common.mbps ~bytes ~elapsed_us:(Sim.Stime.to_us (Sim.Stime.sub t !start_at))

let us_of_ns n = float_of_int n /. 1000.

let row ?bytes ~device ~paper_plexus ~paper_du params =
  let plexus_mbps, gaps = plexus_transfer_timed ?bytes params in
  let gap p =
    if Sim.Stats.Histogram.is_empty gaps then nan
    else us_of_ns (Sim.Stats.Histogram.percentile gaps p)
  in
  {
    device;
    plexus_mbps;
    du_mbps = du_transfer ?bytes params;
    paper_plexus;
    paper_du;
    gap_p50_us = gap 50.;
    gap_p99_us = gap 99.;
  }

let run ?bytes () =
  [
    row ?bytes ~device:"ethernet" ~paper_plexus:(Some 8.9)
      ~paper_du:(Some 8.9)
      (Netsim.Costs.ethernet ());
    row ?bytes ~device:"atm" ~paper_plexus:(Some 33.) ~paper_du:(Some 27.9)
      (Netsim.Costs.atm ());
    row ?bytes ~device:"t3" ~paper_plexus:None ~paper_du:None
      (Netsim.Costs.t3 ());
  ]

let print ?bytes () =
  Common.print_header "Section 4.2: TCP throughput (Mb/s)";
  Printf.printf "%-10s %10s %10s %14s %12s %10s %10s\n" "device" "plexus" "du"
    "paper(plexus)" "paper(du)" "gap-p50us" "gap-p99us";
  let rows = run ?bytes () in
  List.iter
    (fun r ->
      let p = function Some v -> Printf.sprintf "%.1f" v | None -> "-" in
      Printf.printf "%-10s %10.1f %10.1f %14s %12s %10.1f %10.1f\n" r.device
        r.plexus_mbps r.du_mbps (p r.paper_plexus) (p r.paper_du) r.gap_p50_us
        r.gap_p99_us)
    rows;
  Printf.printf
    "(ATM is programmed I/O: CPU-bound; paper's driver-to-driver ceiling ~53 Mb/s)\n";
  rows
