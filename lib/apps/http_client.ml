(* A matching HTTP/1.0 client over the Plexus TCP manager. *)

type result = { status : int; body : string; elapsed : Sim.Stime.t }

let get stack ~dst ~path k =
  let engine = Netsim.Host.engine (Plexus.Stack.host stack) in
  let started = Sim.Engine.now engine in
  match
    Plexus.Tcp_mgr.connect (Plexus.Stack.tcp stack) ~owner:"http-client" ~dst ()
  with
  | Error (`Port_in_use _) | Error `Ephemeral_exhausted ->
      invalid_arg "Http_client.get: no free port"
  | Ok conn ->
      let reader = Proto.Http.reader () in
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Plexus.Tcp_mgr.send conn
            (Proto.Http.request_to_string
               { Proto.Http.meth = "GET"; path; headers = [ ("host", "plexus") ] }));
      Plexus.Tcp_mgr.on_receive conn (Proto.Http.feed reader);
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          let elapsed = Sim.Stime.sub (Sim.Engine.now engine) started in
          match Proto.Http.response reader with
          | Some r -> k (Some { status = r.Proto.Http.status; body = r.body; elapsed })
          | None -> k None
        end
      in
      Plexus.Tcp_mgr.on_peer_close conn (fun () -> Plexus.Tcp_mgr.close conn);
      Plexus.Tcp_mgr.on_close conn finish
