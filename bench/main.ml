(* Component microbenchmarks: the host-machine cost of each mechanism
   the paper claims is cheap — event dispatch ("roughly one procedure
   call") at 1 to 256 installed handlers, guard evaluation and packet
   filters, VIEW header access, mbuf operations, the Internet checksum,
   fragmentation and reassembly, dynamic linking and EPHEMERAL plans.  Prints one
   Bechamel table of ns per operation; host time jitters, so nothing
   here is a gate.  End-to-end workloads live in [perfbench/], the
   paper's tables in [plexus-cli all], and every deterministic property
   in [dune runtest].

   Run with [dune exec bench/main.exe]. *)

open Bechamel
open Toolkit

(* ---- dispatch --------------------------------------------------------- *)

(* A dispatcher wired to a live engine; each raise is drained so state
   does not accumulate across iterations.  [`Linear] installs unkeyed
   guards, so the event compiles to a single leaf that evaluates every
   guard; [`Tree] keys every handler so the merged decision tree
   switches on the payload, and installs them [~exact] so the walk
   proves its match and the guard closure never runs. *)
let dispatcher_env ~mode n_handlers =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"bench" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "bench" in
  if mode = `Tree then
    Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  for i = 0 to n_handlers - 1 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev
        ~guard:(fun x -> x = i)
        ~keys:(if mode = `Tree then [ i ] else [])
        ~exact:(mode = `Tree) ~cost:Sim.Stime.zero ignore
    in
    ()
  done;
  (engine, ev)

let raise_and_drain engine ev x () =
  Spin.Dispatcher.raise ev x;
  Sim.Engine.run engine

let test_direct_call =
  let f = Sys.opaque_identity (fun x -> x + 1) in
  Test.make ~name:"direct procedure call"
    (Staged.stage (fun () -> ignore (f 1)))

(* The raise always matches exactly one handler (the middle one), so
   any cost growth with [n] is pure demultiplexing overhead. *)
let test_dispatch ~mode n =
  let engine, ev = dispatcher_env ~mode n in
  Test.make
    ~name:
      (Printf.sprintf "dispatch %s (%d handlers)"
         (if mode = `Tree then "tree" else "linear")
         n)
    (Staged.stage (raise_and_drain engine ev (n / 2)))

(* 64 analyzers all watching the same traffic (same key, exact guards):
   the merged tree proves all 64 in one walk. *)
let test_analyzers =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"bench" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "analyzers" in
  Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  for _ = 1 to 64 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev ~guard:(fun x -> x = 7) ~keys:[ 7 ]
        ~exact:true ~cost:Sim.Stime.zero ignore
    in
    ()
  done;
  Test.make ~name:"dispatch tree (64 analyzers)"
    (Staged.stage (raise_and_drain engine ev 7))

let dispatch_tests =
  List.concat_map
    (fun n -> [ test_dispatch ~mode:`Linear n; test_dispatch ~mode:`Tree n ])
    [ 1; 8; 64; 256 ]
  @ [ test_analyzers ]

(* ---- headers, guards and filters -------------------------------------- *)

let sample_frame =
  let pkt = Mbuf.of_string (String.make 64 '\000') in
  let v = Mbuf.view pkt in
  Proto.Ether.write v
    {
      Proto.Ether.dst = Proto.Ether.Mac.of_int 0x1111;
      src = Proto.Ether.Mac.of_int 0x2222;
      etype = Proto.Ether.etype_ip;
    };
  View.ro v

let test_guard =
  Test.make ~name:"guard: EtherType packet filter"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (match Proto.Ether.parse sample_frame with
              | Some h -> h.Proto.Ether.etype = Proto.Ether.etype_ip
              | None -> false))))

let test_view_read =
  Test.make ~name:"VIEW: u16+u32 header reads"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (View.get_u16 sample_frame 12));
         ignore (Sys.opaque_identity (View.get_u32 sample_frame 0))))

let test_ipv4_parse =
  let v = View.create 20 in
  Proto.Ipv4.write v
    (Proto.Ipv4.make ~proto:17 ~src:(Proto.Ipaddr.v 10 0 0 1)
       ~dst:(Proto.Ipaddr.v 10 0 0 2) ~payload_len:100 ());
  let v = View.ro v in
  Test.make ~name:"IPv4 header parse + checksum"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Proto.Ipv4.parse v));
         ignore (Sys.opaque_identity (Proto.Ipv4.checksum_valid v))))

let test_tcp_encode =
  let hdr =
    {
      Proto.Tcp_wire.src_port = 1;
      dst_port = 2;
      seq = Proto.Tcp_wire.Seq.of_int 1;
      ack = Proto.Tcp_wire.Seq.of_int 2;
      flags = Proto.Tcp_wire.Flags.ack;
      window = 100;
    }
  in
  let sndq = Proto.Byteq.create () in
  Proto.Byteq.push sndq (String.make 512 'p');
  Test.make ~name:"TCP segment encode (512B, checksummed)"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Proto.Tcp_wire.to_packet ~src:(Proto.Ipaddr.v 10 0 0 1)
                 ~dst:(Proto.Ipaddr.v 10 0 0 2) hdr sndq ~off:0 ~len:512))))

let filter_ctx =
  let engine = Sim.Engine.create () in
  let host =
    Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 0 0 1)
  in
  let dev = Netsim.Host.add_device host (Netsim.Costs.loopback ()) in
  Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string (String.make 64 'p')))

(* The 5-node filter of the original microbenchmark and a richer 15-node
   demultiplexing predicate, each interpreted and compiled.  Compilation
   folds the 5-node filter's [Or (_, True)] to one instruction; the
   15-node filter keeps real work on both sides. *)

let filter_5 =
  Plexus.Filter.(
    And (Gt (Payload_len, 0), Or (Eq (U8 (Cur, 0), Char.code 'p'), True)))

let filter_15 =
  Plexus.Filter.(
    And
      ( And (Eq (U8 (Cur, 0), Char.code 'p'), Gt (Payload_len, 0)),
        And
          ( Or
              ( Eq (U8 (Cur, 1), Char.code 'p'),
                Or (Eq (U8 (Cur, 2), 0), Eq (U8 (Cur, 3), 1)) ),
            Not (Or (Eq (Payload_len, 0), Gt (Payload_len, 65536))) ) ))

let filter_tests =
  List.concat_map
    (fun (nodes, filter) ->
      let prog = Plexus.Filter.compile filter in
      [
        Test.make
          ~name:(Printf.sprintf "interpreted packet filter (%d nodes)" nodes)
          (Staged.stage (fun () ->
               ignore
                 (Sys.opaque_identity (Plexus.Filter.eval filter filter_ctx))));
        Test.make
          ~name:(Printf.sprintf "compiled packet filter (%d nodes)" nodes)
          (Staged.stage (fun () ->
               ignore
                 (Sys.opaque_identity (Plexus.Filter.run prog filter_ctx))));
      ])
    [ (5, filter_5); (15, filter_15) ]

(* ---- mbufs, checksums, fragmentation ---------------------------------- *)

let test_mbuf_alloc =
  Test.make ~name:"mbuf alloc (1500B)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Mbuf.alloc 1500))))

let test_mbuf_prepend =
  Test.make ~name:"mbuf alloc+prepend header"
    (Staged.stage (fun () ->
         let m = Mbuf.alloc 100 in
         ignore (Sys.opaque_identity (Mbuf.prepend m 14))))

let test_mbuf_recycle =
  Test.make ~name:"mbuf alloc+free 1500B (recycling)"
    (Staged.stage (fun () -> Mbuf.free (Mbuf.alloc 1500)))

(* The chain-aware word-at-a-time fold against the byte-at-a-time
   reference, on one MTU frame and on a 12.5 KB datagram split into
   fragment-sized segments (odd-length capable, no pullup). *)
let views_of ~seg_len total =
  List.init
    ((total + seg_len - 1) / seg_len)
    (fun i ->
      View.of_string (String.make (min seg_len (total - (i * seg_len))) 'x'))

let cksum_tests =
  List.concat_map
    (fun (label, vs) ->
      [
        Test.make
          ~name:(Printf.sprintf "cksum chain-aware (%s)" label)
          (Staged.stage (fun () ->
               ignore (Sys.opaque_identity (Cksum.of_views vs))));
        Test.make
          ~name:(Printf.sprintf "cksum byte-at-a-time (%s)" label)
          (Staged.stage (fun () ->
               ignore (Sys.opaque_identity (Cksum.of_views_bytewise vs))));
      ])
    [
      ("1500B", views_of ~seg_len:1500 1500);
      ("12.5KB chain", views_of ~seg_len:1480 12500);
    ]

let test_fragment =
  let payload = Mbuf.of_string (String.make 12500 'v') in
  Test.make ~name:"fragment 12.5KB into sub-chains"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity (Proto.Ip_frag.fragment ~mtu:1500 payload))))

(* Reassembly with [n] trains pending: each operation ends the oldest
   train with a fragment that overlaps it and opens a new one with a
   lone first fragment, so [n] stay pending, within the budget, and
   nothing is assembled.  The cost should not grow with [n]. *)
let test_lone_fragment n =
  let t = Proto.Ip_frag.create (Sim.Engine.create ()) in
  let src = Proto.Ipaddr.v 10 0 0 1 and dst = Proto.Ipaddr.v 10 0 0 2 in
  let v = View.create (Proto.Ipv4.header_len + 16) in
  let feed id off8 =
    Proto.Ipv4.write v
      (Proto.Ipv4.make ~id:(id land 0xffff) ~more_fragments:true
         ~frag_offset:off8 ~proto:17 ~src ~dst ~payload_len:16 ());
    ignore (Sys.opaque_identity (Proto.Ip_frag.receive t ~host:dst v))
  in
  for id = 0 to n - 1 do
    feed id 0
  done;
  let next = ref n in
  Test.make
    ~name:(Printf.sprintf "drop oldest + lone fragment (%d pending)" n)
    (Staged.stage (fun () ->
         feed (!next - n) 1;
         feed !next 0;
         incr next))

(* ---- extensions -------------------------------------------------------- *)

let test_link_unlink =
  let iface = Spin.Interface.create "Svc" in
  let w : int Spin.Univ.witness = Spin.Univ.witness () in
  Spin.Interface.export iface ~sym:"op" w 7;
  let domain = Spin.Domain.of_interfaces "d" [ iface ] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage -> ignore (linkage.get w ~iface:"Svc" ~sym:"op"))
  in
  Test.make ~name:"dynamic link + unlink"
    (Staged.stage (fun () ->
         match Spin.Linker.link ~domain ext with
         | Ok l -> Spin.Linker.unlink l
         | Error _ -> ()))

let test_ephemeral_plan =
  let prog =
    List.init 4 (fun _ ->
        Spin.Ephemeral.work ~label:"w" ~cost:(Sim.Stime.us 5) ignore)
  in
  Test.make ~name:"ephemeral plan+commit (4 actions)"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Spin.Ephemeral.execute ~budget:(Sim.Stime.us 12) prog))))

let tests =
  (test_direct_call :: dispatch_tests)
  @ [ test_guard; test_view_read; test_ipv4_parse; test_tcp_encode ]
  @ filter_tests
  @ [ test_mbuf_alloc; test_mbuf_prepend; test_mbuf_recycle ]
  @ cksum_tests
  @ [ test_fragment; test_lone_fragment 16; test_lone_fragment 1024 ]
  @ [ test_link_unlink; test_ephemeral_plan ]

(* One OLS estimate per subject against the monotonic clock, a quarter
   second of samples each. *)
let () =
  print_endline
    "=== Component microbenchmarks (host-machine ns per operation) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let clock = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ clock ] test in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] -> Printf.printf "  %-44s %12.1f ns\n%!" name est
          | _ -> Printf.printf "  %-44s (no estimate)\n%!" name)
        (Analyze.all ols clock results))
    tests
