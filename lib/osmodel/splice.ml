(* The user-level TCP forwarder the paper compares against (section 5.2):
   "a user-level process that splices together an incoming and outgoing
   socket".

   Every forwarded byte makes two trips through the protocol stack and is
   twice copied across the user/kernel boundary; because the splice
   terminates the TCP connection, end-to-end semantics (connection
   establishment/teardown, window negotiation, congestion control) are
   not preserved — exactly the deficiencies the paper lists. *)

type t = {
  du : Du_stack.t;
  listen_port : int;
  backend : Proto.Ipaddr.t * int;
  costs : Netsim.Costs.t;
  cpu : Sim.Cpu.t;
  mutable sessions : int;
  mutable forwarded_bytes : int;
}

let create du ~listen_port ~backend =
  let host = Du_stack.host du in
  let t =
    {
      du;
      listen_port;
      backend;
      costs = Netsim.Host.costs host;
      cpu = Netsim.Host.cpu host;
      sessions = 0;
      forwarded_bytes = 0;
    }
  in
  let on_accept client =
    t.sessions <- t.sessions + 1;
    let server = Du_stack.tcp_connect du ~dst:t.backend () in
    (* Relay in both directions.  Each relayed chunk costs user-level
       processing on top of the two boundary crossings the socket API
       already charges. *)
    let relay src_conn dst_conn view =
      ignore src_conn;
      (* the user process's buffer: kept past the lent view *)
      let data = View.to_string view in
      t.forwarded_bytes <- t.forwarded_bytes + String.length data;
      Sim.Cpu.submit t.cpu Sim.Cpu.Thread ~cost:t.costs.Netsim.Costs.splice_user
        (fun () -> Du_stack.tcp_send du dst_conn data)
    in
    Du_stack.on_receive client (fun data -> relay client server data);
    Du_stack.on_receive server (fun data -> relay server client data);
    Du_stack.on_peer_close client (fun () -> Du_stack.tcp_close du server);
    Du_stack.on_peer_close server (fun () -> Du_stack.tcp_close du client)
  in
  match Du_stack.tcp_listen du ~port:listen_port ~on_accept () with
  | Ok () -> t
  | Error (`Port_in_use _) -> invalid_arg "Splice.create: port in use"

let sessions t = t.sessions
let forwarded_bytes t = t.forwarded_bytes
