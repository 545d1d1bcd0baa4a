(* Latency vs. message size: the natural companion to Figure 5.  UDP
   round trips across payload sizes on each device, Plexus (interrupt
   delivery) against DIGITAL UNIX.  Shows where each device's per-byte
   term takes over from the fixed per-packet costs: the Ethernet wire,
   the ATM PIO loop, and for DIGITAL UNIX the user/kernel copies. *)

type point = { size : int; plexus_us : float; du_us : float }

type row = { device : string; points : point list }

let sizes = [ 8; 64; 256; 512; 1024; 1400 ]

let run ?(iters = 100) () =
  List.map
    (fun params ->
      {
        device = params.Netsim.Costs.label;
        points =
          List.map
            (fun size ->
              {
                size;
                plexus_us =
                  Common.udp_echo_plexus ~payload_len:size ~iters params;
                du_us = Common.udp_echo_du ~payload_len:size ~iters params;
              })
            sizes;
      })
    [ Netsim.Costs.ethernet (); Netsim.Costs.atm (); Netsim.Costs.t3 () ]

let print ?iters () =
  Common.print_header
    "Latency vs. message size: UDP RTT (microseconds), Plexus-intr / DIGITAL UNIX";
  let rows = run ?iters () in
  Printf.printf "%10s" "size";
  List.iter (fun r -> Printf.printf "  %19s" r.device) rows;
  print_newline ();
  List.iteri
    (fun i size ->
      Printf.printf "%10d" size;
      List.iter
        (fun r ->
          let p = List.nth r.points i in
          Printf.printf "  %8.1f / %8.1f" p.plexus_us p.du_us)
        rows;
      print_newline ())
    sizes;
  rows
