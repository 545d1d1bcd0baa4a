(* Reliable blast: an application-specific transfer protocol over UDP.

   The paper's introduction promises "the framework for supporting new
   protocols [CSZ92], and implementing optimizations ... such as
   application level framing [CT90]".  This is one: a NACK-based bulk
   transfer whose unit of loss recovery is the application's own frame,
   not a byte stream.  The sender blasts every chunk, then the receiver
   asks — once, for exactly the frames it lacks — instead of the
   sender-driven timeout/window machinery of TCP.  Over networks where
   loss is rare, almost every frame crosses exactly once and there is no
   connection state to establish or tear down.

   Wire format (inside a checksummed UDP datagram):
     DATA  : u8 0 | u16 seq | u16 total | bytes
     END   : u8 1 | u16 total
     NACK  : u8 2 | u16 count | count * u16 seq
     DONE  : u8 3

   The receiver answers END with a NACK for missing frames (or DONE);
   the sender resends exactly those and re-sends END.  Timers on both
   sides recover from lost control messages. *)

let t_data = 0
let t_end = 1
let t_nack = 2
let t_done = 3

let max_nack = 64 (* seqs per NACK datagram *)

type sender = {
  s_udp : Plexus.Udp_mgr.t;
  s_ep : Plexus.Endpoint.t;
  s_dst : Proto.Ipaddr.t * int;
  s_engine : Sim.Engine.t;
  chunks : string array;
  mutable s_done : bool;
  mutable retransmissions : int;
  mutable end_probes : int;
  s_on_complete : unit -> unit;
}

let chunk_payload t seq =
  let v = View.create (5 + String.length t.chunks.(seq)) in
  View.set_u8 v 0 t_data;
  View.set_u16 v 1 seq;
  View.set_u16 v 3 (Array.length t.chunks);
  View.set_string v ~off:5 t.chunks.(seq);
  View.to_string (View.ro v)

let end_payload t =
  let v = View.create 3 in
  View.set_u8 v 0 t_end;
  View.set_u16 v 1 (Array.length t.chunks);
  View.to_string (View.ro v)

let send_chunk t seq =
  Plexus.Udp_mgr.send t.s_udp t.s_ep ~dst:t.s_dst (chunk_payload t seq)

let rec arm_end_probe t =
  (* if neither NACK nor DONE shows up, nudge the receiver again *)
  ignore
    (Sim.Engine.schedule_in t.s_engine ~delay:(Sim.Stime.ms 200) (fun () ->
         if not t.s_done then begin
           t.end_probes <- t.end_probes + 1;
           Plexus.Udp_mgr.send t.s_udp t.s_ep ~dst:t.s_dst (end_payload t);
           arm_end_probe t
         end))

let sender_rx t ctx =
  let v = Plexus.Pctx.view ctx in
  if View.length v >= 1 then
    match View.get_u8 v 0 with
    | x when x = t_done ->
        if not t.s_done then begin
          t.s_done <- true;
          t.s_on_complete ()
        end
    | x when x = t_nack && View.length v >= 3 ->
        let count = View.get_u16 v 1 in
        if View.length v >= 3 + (2 * count) then begin
          for i = 0 to count - 1 do
            let seq = View.get_u16 v (3 + (2 * i)) in
            if seq < Array.length t.chunks then begin
              t.retransmissions <- t.retransmissions + 1;
              send_chunk t seq
            end
          done;
          Plexus.Udp_mgr.send t.s_udp t.s_ep ~dst:t.s_dst (end_payload t)
        end
    | _ -> ()

(* Blast [data] to [dst] in [chunk]-byte frames. *)
let send stack ~port ~dst ~chunk ~data ~on_complete =
  if chunk <= 0 then invalid_arg "Blast.send: chunk must be positive";
  let udp = Plexus.Stack.udp stack in
  let ep =
    match Plexus.Udp_mgr.bind udp ~owner:"blast-sender" ~port with
    | Ok ep -> ep
    | Error (`Port_in_use p) ->
        invalid_arg (Printf.sprintf "Blast.send: port %d in use" p)
  in
  let n = (String.length data + chunk - 1) / chunk in
  let chunks =
    Array.init (max n 1) (fun i ->
        let off = i * chunk in
        String.sub data off (min chunk (String.length data - off)))
  in
  let t =
    {
      s_udp = udp;
      s_ep = ep;
      s_dst = dst;
      s_engine = Netsim.Host.engine (Plexus.Stack.host stack);
      chunks;
      s_done = false;
      retransmissions = 0;
      end_probes = 0;
      s_on_complete = on_complete;
    }
  in
  let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp ep (sender_rx t) in
  Array.iteri (fun seq _ -> send_chunk t seq) t.chunks;
  Plexus.Udp_mgr.send udp ep ~dst (end_payload t);
  arm_end_probe t;
  t

let retransmissions t = t.retransmissions
let end_probes t = t.end_probes
let complete t = t.s_done

(* ---- receiver ---------------------------------------------------------- *)

type receiver = {
  r_udp : Plexus.Udp_mgr.t;
  r_ep : Plexus.Endpoint.t;
  mutable frames : string option array;
  mutable r_total : int option;
  mutable r_src : (Proto.Ipaddr.t * int) option;
  mutable nacks_sent : int;
  mutable r_done : bool;
  r_on_complete : string -> unit;
}

let missing r =
  match r.r_total with
  | None -> []
  | Some total ->
      List.filter (fun i -> r.frames.(i) = None) (List.init total Fun.id)

let reply r payload =
  match r.r_src with
  | Some dst -> Plexus.Udp_mgr.send r.r_udp r.r_ep ~dst payload
  | None -> ()

let check_completion r =
  match r.r_total with
  | Some total when missing r = [] && not r.r_done ->
      r.r_done <- true;
      let v = View.create 1 in
      View.set_u8 v 0 t_done;
      reply r (View.to_string (View.ro v));
      let buf = Buffer.create (total * 64) in
      Array.iter
        (function Some s -> Buffer.add_string buf s | None -> ())
        r.frames;
      r.r_on_complete (Buffer.contents buf)
  | Some _ when r.r_done ->
      (* duplicate END after completion: re-acknowledge *)
      let v = View.create 1 in
      View.set_u8 v 0 t_done;
      reply r (View.to_string (View.ro v))
  | _ -> ()

let send_nacks r =
  let miss = missing r in
  if miss <> [] then begin
    let batch = List.filteri (fun i _ -> i < max_nack) miss in
    let v = View.create (3 + (2 * List.length batch)) in
    View.set_u8 v 0 t_nack;
    View.set_u16 v 1 (List.length batch);
    List.iteri (fun i seq -> View.set_u16 v (3 + (2 * i)) seq) batch;
    r.nacks_sent <- r.nacks_sent + 1;
    reply r (View.to_string (View.ro v))
  end

let ensure_capacity r total =
  if Array.length r.frames < total then begin
    let bigger = Array.make total None in
    Array.blit r.frames 0 bigger 0 (Array.length r.frames);
    r.frames <- bigger
  end;
  if r.r_total = None then r.r_total <- Some total

let receiver_rx r ctx =
  let v = Plexus.Pctx.view ctx in
  r.r_src <-
    Some ((Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src, ctx.Plexus.Pctx.src_port);
  if View.length v >= 1 then
    match View.get_u8 v 0 with
    | x when x = t_data && View.length v >= 5 ->
        let seq = View.get_u16 v 1 and total = View.get_u16 v 3 in
        ensure_capacity r total;
        if seq < total && r.frames.(seq) = None then
          r.frames.(seq) <-
            Some (View.get_string v ~off:5 ~len:(View.length v - 5))
    | x when x = t_end && View.length v >= 3 ->
        ensure_capacity r (View.get_u16 v 1);
        if missing r = [] then check_completion r else send_nacks r
    | _ -> ()

let receive stack ~port ~on_complete =
  let udp = Plexus.Stack.udp stack in
  let ep =
    match Plexus.Udp_mgr.bind udp ~owner:"blast-receiver" ~port with
    | Ok ep -> ep
    | Error (`Port_in_use p) ->
        invalid_arg (Printf.sprintf "Blast.receive: port %d in use" p)
  in
  let r =
    {
      r_udp = udp;
      r_ep = ep;
      frames = Array.make 0 None;
      r_total = None;
      r_src = None;
      nacks_sent = 0;
      r_done = false;
      r_on_complete = on_complete;
    }
  in
  let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp ep (receiver_rx r) in
  r

let nacks_sent r = r.nacks_sent
