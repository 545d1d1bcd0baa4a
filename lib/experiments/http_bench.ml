(* Application-level comparison on the paper's closing demo: HTTP GET
   latency with the server as a Plexus extension vs. a DIGITAL UNIX
   user process.  The whole request crosses the network twice and the
   server's OS structure once each way — a compact end-to-end summary of
   the architecture's value for small-transaction services. *)

type result = { plexus_us : float; du_us : float; body_len : int }

let body = String.concat "" (List.init 20 (fun _ -> "0123456789abcdef"))
let path = "/bench"

let plexus_get_latency ?(warmup = 3) ?(iters = 30) params =
  let p = Common.plexus_pair params in
  let engine = p.Common.engine in
  let routes = Hashtbl.create 4 in
  Hashtbl.replace routes path body;
  let _server = Apps.Http_server.create ~port:80 ~routes p.Common.b in
  let loop = Common.Pingpong.create ~warmup ~iters engine in
  Common.Pingpong.start loop (fun () ->
      Apps.Http_client.get p.Common.a ~dst:(Common.ip_b, 80) ~path (fun r ->
          (match r with
          | Some r when r.Apps.Http_client.status = 200 ->
              Common.Pingpong.record loop
          | _ -> ());
          ignore
            (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.ms 1) (fun () ->
                 Common.Pingpong.next loop))));
  Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
  Common.Pingpong.mean_us loop

(* The same server as a DIGITAL UNIX user process over sockets. *)
let du_get_latency ?(warmup = 3) ?(iters = 30) params =
  let p = Common.du_pair params in
  let engine = p.Common.du_engine in
  let du_b = p.Common.dub and du_a = p.Common.dua in
  (match
     Osmodel.Du_stack.tcp_listen du_b ~port:80
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn
           (Proto.Http.on_request (fun req ->
                (* one write(2) of the whole response *)
                Osmodel.Du_stack.tcp_send du_b conn
                  (Proto.Http.response_to_string
                     (match req with
                     | Some req when req.Proto.Http.path = path -> Proto.Http.ok body
                     | _ -> Proto.Http.not_found));
                Osmodel.Du_stack.tcp_close du_b conn)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let loop = Common.Pingpong.create ~warmup ~iters engine in
  Common.Pingpong.start loop (fun () ->
      let conn = Osmodel.Du_stack.tcp_connect du_a ~dst:(Common.ip_b, 80) () in
      let reader = Proto.Http.reader () in
      Osmodel.Du_stack.on_established conn (fun () ->
          Osmodel.Du_stack.tcp_send du_a conn
            (Proto.Http.request_to_string
               { Proto.Http.meth = "GET"; path; headers = [] }));
      Osmodel.Du_stack.on_receive conn (Proto.Http.feed reader);
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          (match Proto.Http.response reader with
          | Some r when r.Proto.Http.status = 200 ->
              Common.Pingpong.record loop
          | _ -> ());
          ignore
            (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.ms 1) (fun () ->
                 Common.Pingpong.next loop))
        end
      in
      Osmodel.Du_stack.on_peer_close conn (fun () ->
          Osmodel.Du_stack.tcp_close du_a conn);
      Osmodel.Du_stack.on_close conn finish);
  Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
  Common.Pingpong.mean_us loop

let run ?(params = Netsim.Costs.ethernet ()) ?warmup ?iters () =
  {
    plexus_us = plexus_get_latency ?warmup ?iters params;
    du_us = du_get_latency ?warmup ?iters params;
    body_len = String.length body;
  }

let print ?params ?warmup ?iters () =
  Common.print_header
    "HTTP GET latency: server as Plexus extension vs. DIGITAL UNIX process";
  let r = run ?params ?warmup ?iters () in
  Printf.printf
    "  %d-byte body over Ethernet: plexus %.0f us/GET, digital-unix %.0f us/GET (%.2fx)\n"
    r.body_len r.plexus_us r.du_us (r.du_us /. r.plexus_us);
  r
