(* Section 3.3 microbenchmarks: active messages at interrupt level.

   The AM extension is dynamically linked through the real SPIN pipeline
   (compile -> sign -> link against a restricted domain), its guard
   demultiplexes on the EtherType, and its handler runs as an EPHEMERAL
   program directly in the receive interrupt — "protocols which require
   little processing for each incoming packet exhibit the best
   performance when they can run at interrupt level". *)

type am_result = {
  interrupt_rtt : float; (* us *)
  thread_rtt : float;
  udp_rtt : float;       (* the same wire, through the full UDP stack *)
}

let am_rtt ?(mode = Spin.Dispatcher.Interrupt) ?(payload_len = 8) ?(warmup = 10)
    ?(iters = 100) params =
  let p = Common.plexus_pair params in
  Plexus.Stack.set_delivery p.Common.a mode;
  Plexus.Stack.set_delivery p.Common.b mode;
  (* Responder on B: echo from interrupt context. *)
  let _bctx, bext =
    Apps.Active_messages.echo_extension ~name:"am-echo"
      ~reply_cost:(Sim.Stime.us 2) ()
  in
  (match Plexus.Stack.link p.Common.b bext with
  | Ok _ -> ()
  | Error f -> failwith (Fmt.str "%a" Spin.Extension.pp_failure f));
  (* Pinger on A: handler 1 records the round trip and fires the next. *)
  let loop = Common.Pingpong.create ~warmup ~iters p.Common.engine in
  let handlers _ctx idx ~src:_ _payload =
    if idx = 1 then
      [
        Spin.Ephemeral.work ~label:"am-pong" ~cost:(Sim.Stime.us 1) (fun () ->
            Common.Pingpong.pong loop);
      ]
    else Spin.Ephemeral.nothing
  in
  let actx, aext =
    Apps.Active_messages.extension ~name:"am-ping" ~handlers ()
  in
  (match Plexus.Stack.link p.Common.a aext with
  | Ok _ -> ()
  | Error f -> failwith (Fmt.str "%a" Spin.Extension.pp_failure f));
  let dst = Plexus.Ether_mgr.mac (Plexus.Stack.ether p.Common.b) in
  Common.Pingpong.start loop (fun () ->
      Apps.Active_messages.send actx ~dst ~handler:0
        (String.make payload_len 'a'));
  Sim.Engine.run p.Common.engine ~max_events:10_000_000;
  Common.Pingpong.mean_us loop

let run ?(params = Netsim.Costs.ethernet ()) ?iters () =
  {
    interrupt_rtt = am_rtt ?iters ~mode:Spin.Dispatcher.Interrupt params;
    thread_rtt = am_rtt ?iters ~mode:Spin.Dispatcher.Thread params;
    udp_rtt = Common.udp_echo_plexus ?iters params;
  }

(* Budget termination (section 3.3): a handler whose ephemeral program
   exceeds its time allotment is terminated between actions; committed
   work survives, the rest is discarded. *)
type termination_result = {
  messages : int;
  terminations : int;
  committed_actions : int;
}

let budget_termination ?(messages = 50) ?(actions = 10)
    ?(action_cost = Sim.Stime.us 5) ?(budget = Sim.Stime.us 22) () =
  let p = Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let committed = ref 0 in
  let handlers _ctx idx ~src:_ _payload =
    ignore idx;
    List.init actions (fun i ->
        Spin.Ephemeral.work
          ~label:(Printf.sprintf "step%d" i)
          ~cost:action_cost
          (fun () -> incr committed))
  in
  let _ctx, ext =
    Apps.Active_messages.extension ~name:"am-budget" ~budget ~handlers ()
  in
  (match Plexus.Stack.link p.Common.b ext with
  | Ok _ -> ()
  | Error f -> failwith (Fmt.str "%a" Spin.Extension.pp_failure f));
  let actx, aext =
    Apps.Active_messages.extension ~name:"am-src"
      ~handlers:(fun _ _ ~src:_ _ -> Spin.Ephemeral.nothing)
      ()
  in
  (match Plexus.Stack.link p.Common.a aext with
  | Ok _ -> ()
  | Error f -> failwith (Fmt.str "%a" Spin.Extension.pp_failure f));
  let dst = Plexus.Ether_mgr.mac (Plexus.Stack.ether p.Common.b) in
  for _ = 1 to messages do
    Apps.Active_messages.send actx ~dst ~handler:0 "x"
  done;
  Sim.Engine.run p.Common.engine ~max_events:10_000_000;
  let disp =
    Spin.Kernel.dispatcher (Netsim.Host.kernel (Plexus.Stack.host p.Common.b))
  in
  {
    messages;
    terminations = Spin.Dispatcher.terminations disp;
    committed_actions = !committed;
  }

let print ?params ?iters () =
  Common.print_header
    "Section 3.3: active messages at interrupt level (8-byte RTT, microseconds)";
  let r = run ?params ?iters () in
  Printf.printf "  AM, interrupt-level EPHEMERAL handler : %8.1f us\n"
    r.interrupt_rtt;
  Printf.printf "  AM, thread-per-raise delivery         : %8.1f us\n"
    r.thread_rtt;
  Printf.printf "  UDP through the full stack            : %8.1f us\n" r.udp_rtt;
  let tr = budget_termination () in
  Printf.printf
    "  Budget termination: %d msgs, %d handlers terminated, %d/%d actions committed\n"
    tr.messages tr.terminations tr.committed_actions (tr.messages * 10);
  r
