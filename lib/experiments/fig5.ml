(* Figure 5: UDP round-trip latency for small (8-byte) packets across the
   three devices, for Plexus with interrupt-level delivery, Plexus with
   thread-per-raise delivery, and DIGITAL UNIX — plus the raw
   driver-to-driver minimum, and the faster-driver variants quoted in
   section 4.1 (337 us Ethernet, 241 us ATM). *)

type row = {
  device : string;
  plexus_interrupt : float; (* us, mean RTT *)
  plexus_thread : float;
  digital_unix : float;
  user_library : float;
      (* the related-work model of section 6: kernel packet filter +
         user-space protocol library *)
  raw_driver : float;
  paper_plexus : float option; (* the value the paper quotes, where given *)
}

let devices () =
  [
    (Netsim.Costs.ethernet (), Some 600.);
    (Netsim.Costs.atm (), Some 350.);
    (Netsim.Costs.t3 (), Some 300.);
  ]

let measure ?(iters = 200) (params : Netsim.Costs.device) paper =
  {
    device = params.label;
    plexus_interrupt =
      Common.udp_echo_plexus ~mode:Spin.Dispatcher.Interrupt ~iters params;
    plexus_thread =
      Common.udp_echo_plexus ~mode:Spin.Dispatcher.Thread ~iters params;
    digital_unix = Common.udp_echo_du ~iters params;
    user_library = Common.udp_echo_ulib ~iters params;
    raw_driver = Common.raw_device_rtt params ~len:64;
    paper_plexus = paper;
  }

let run ?iters () =
  List.map (fun (params, paper) -> measure ?iters params paper) (devices ())

let fast_driver_variants ?(iters = 200) () =
  [
    ( "ethernet-fast",
      Common.udp_echo_plexus ~iters (Netsim.Costs.ethernet ~fast:true ()),
      337. );
    ( "atm-fast",
      Common.udp_echo_plexus ~iters (Netsim.Costs.atm ~fast:true ()),
      241. );
  ]

let print ?iters () =
  Common.print_header
    "Figure 5: UDP round-trip latency, 8-byte payload (microseconds)";
  Printf.printf "%-12s %12s %12s %13s %11s %9s %14s\n" "device" "plexus-intr"
    "plexus-thr" "digital-unix" "user-lib" "raw-drv" "paper(plexus)";
  let rows = run ?iters () in
  List.iter
    (fun r ->
      Printf.printf "%-12s %12.1f %12.1f %13.1f %11.1f %9.1f %14s\n" r.device
        r.plexus_interrupt r.plexus_thread r.digital_unix r.user_library
        r.raw_driver
        (match r.paper_plexus with
        | Some p -> Printf.sprintf "%.0f" p
        | None -> "-"))
    rows;
  Printf.printf
    "\nFaster device driver (paper quotes 337us Ethernet / 241us ATM):\n";
  List.iter
    (fun (label, v, paper) ->
      Printf.printf "  %-14s plexus-intr %8.1f us   (paper: %.0f us)\n" label v
        paper)
    (fast_driver_variants ?iters ());
  rows
