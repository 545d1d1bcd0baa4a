(* The calibrated cost model.

   All constants model a DEC Alpha 3000/400 (21064 @ 133 MHz, ~7.5 ns per
   cycle) and the three network devices of the paper's testbed.  They were
   chosen so that the *structural* results of the paper emerge from the
   simulation: per-layer protocol costs plus device costs reproduce the
   Plexus UDP round-trip latencies of section 4.1 (< 600 us Ethernet,
   ~350 us ATM, ~300 us T3, and the faster-driver variants 337/241 us);
   the per-byte PIO cost of the Fore TCA-100 gives the 53 Mb/s
   driver-to-driver ceiling of section 4 and the 33 vs 27.9 Mb/s TCP split
   of section 4.2; user/kernel copy and trap costs give DIGITAL UNIX its
   latency and CPU-utilization penalties (Figures 5 and 6).

   EXPERIMENTS.md records measured-vs-paper values for every figure. *)

module T = Sim.Stime

(* Per-layer protocol processing costs (per packet, excluding data-touching
   work, which is charged per byte). *)
type layer = {
  ether_in : T.t;
  ether_out : T.t;
  ip_in : T.t;
  ip_out : T.t;
  udp_in : T.t;
  udp_out : T.t;
  tcp_in : T.t;
  tcp_out : T.t;
  app : T.t;              (* application handler per packet *)
  cksum_ns_per_byte : float; (* memory-bound checksum over payload *)
  copy_ns_per_byte : float;  (* memory copy (user/kernel crossing, COW) *)
}

(* Monolithic-OS structure costs: what DIGITAL UNIX pays that kernel
   extensions do not. *)
type os = {
  trap : T.t;        (* syscall entry/exit *)
  copy_fixed : T.t;  (* fixed part of copyin/copyout *)
  ctx_switch : T.t;  (* process context switch *)
  wakeup : T.t;      (* scheduler wakeup of a blocked process *)
  socket_in : T.t;   (* socket-buffer receive processing *)
  socket_out : T.t;  (* socket send processing *)
}

type t = {
  layer : layer;
  os : os;
  dispatch : Spin.Dispatcher.costs;
  fwd_rewrite : T.t;       (* in-kernel forwarder header rewrite (RFC1624) *)
  splice_user : T.t;       (* user-level splice per-packet application work *)
  disk_dma_setup : T.t;
  disk_intr : T.t;
  fb_ns_per_byte : float;  (* framebuffer writes: ~10x slower than RAM *)
  ram_ns_per_byte : float;
}

let default =
  {
    layer =
      {
        ether_in = T.us 5;
        ether_out = T.us 8;
        ip_in = T.us 15;
        ip_out = T.us 13;
        udp_in = T.us 13;
        udp_out = T.us 11;
        tcp_in = T.us 30;
        tcp_out = T.us 28;
        app = T.us 4;
        cksum_ns_per_byte = 22.;
        copy_ns_per_byte = 30.;
      };
    os =
      {
        trap = T.us 10;
        copy_fixed = T.us 5;
        ctx_switch = T.us 80;
        wakeup = T.us 30;
        socket_in = T.us 12;
        socket_out = T.us 12;
      };
    dispatch =
      {
        Spin.Dispatcher.dispatch = T.ns 400;
        guard = T.ns 300;
        index = T.ns 250;
        tree_node = T.ns 100;
        thread_spawn = T.us 25;
      };
    fwd_rewrite = T.us 8;
    splice_user = T.us 25;
    disk_dma_setup = T.us 20;
    disk_intr = T.us 15;
    fb_ns_per_byte = 250.;
    ram_ns_per_byte = 25.;
  }

let per_byte ns_per_byte len = T.scaled len ~mul:ns_per_byte ~div:1

(* ------------------------------------------------------------------ *)
(* Device parameter sets.                                              *)

type device = {
  label : string;
  mtu : int;
  bw_bits_per_s : int;
  tx_fixed : T.t;          (* driver + device CPU cost per send *)
  rx_fixed : T.t;          (* interrupt + driver CPU cost per receive *)
  pio_ns_per_byte : float; (* programmed I/O: CPU per byte, both directions *)
  frame_overhead : int -> int; (* packet length -> bytes on the wire *)
  prop_delay : T.t;        (* propagation (+ switch) latency *)
  txq_limit : int;
  shared_medium : bool;    (* half-duplex shared wire (Ethernet segment) *)
}

(* 10 Mb/s LANCE Ethernet: DMA device.  Frames are padded to the 60-byte
   minimum; the wire also carries 4 bytes FCS, 8 preamble and 12 of
   inter-frame gap. *)
let ethernet ?(fast = false) () =
  {
    label = (if fast then "ethernet-fast" else "ethernet");
    mtu = 1500;
    bw_bits_per_s = 10_000_000;
    tx_fixed = (if fast then T.us 18 else T.us 70);
    rx_fixed = (if fast then T.us 22 else T.us 80);
    pio_ns_per_byte = 0.;
    frame_overhead = (fun len -> Int.max len 60 + 4 + 8 + 12);
    prop_delay = T.us 1;
    txq_limit = 64;
    shared_medium = true;
  }

(* 155 Mb/s Fore TCA-100: programmed I/O — the CPU moves every byte, which
   caps reliable transfer at ~53 Mb/s (1 / 0.15 us/B = 53.3 Mb/s),
   matching the paper's measured driver-to-driver ceiling.  Data travels
   in 53-byte cells carrying 48 payload bytes (AAL5 adds an 8-byte
   trailer); the path crosses a ForeRunner switch. *)
let atm ?(fast = false) () =
  {
    label = (if fast then "atm-fast" else "atm");
    mtu = 1500;
    bw_bits_per_s = 155_000_000;
    tx_fixed = (if fast then T.us 8 else T.us 32);
    rx_fixed = (if fast then T.us 12 else T.us 45);
    pio_ns_per_byte = 150.;
    frame_overhead = (fun len -> (len + 8 + 47) / 48 * 53);
    prop_delay = T.us 10;
    txq_limit = 64;
    shared_medium = false;
  }

(* 45 Mb/s DEC T3: DMA "with minimal CPU involvement"; hosts connected
   back to back. *)
let t3 () =
  {
    label = "t3";
    mtu = 4470;
    bw_bits_per_s = 45_000_000;
    tx_fixed = T.us 30;
    rx_fixed = T.us 38;
    pio_ns_per_byte = 0.;
    frame_overhead = (fun len -> len + 4);
    prop_delay = T.us 2;
    txq_limit = 128;
    shared_medium = false;
  }

(* An idealized device for unit tests: instantaneous and free. *)
let loopback () =
  {
    label = "loopback";
    mtu = 65535;
    bw_bits_per_s = 10_000_000_000;
    tx_fixed = T.zero;
    rx_fixed = T.zero;
    pio_ns_per_byte = 0.;
    frame_overhead = (fun len -> len);
    prop_delay = T.ns 100;
    txq_limit = 1024;
    shared_medium = false;
  }
