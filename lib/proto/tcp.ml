(* A TCP engine: connection establishment, sliding-window data transfer
   with slow start / congestion avoidance, retransmission (timeout and
   fast retransmit), and orderly close.

   The engine is deliberately environment-agnostic: it reaches the world
   only through an [env] record (clock, timers, segment output, delivery
   callbacks).  The paper stresses that Plexus and DIGITAL UNIX ran "the
   same TCP/IP implementation" so the measured differences are purely OS
   structure; we preserve that methodology by running this one engine
   under both execution models. *)

module Seq = Tcp_wire.Seq
module Flags = Tcp_wire.Flags

type state =
  | Closed
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

type config = {
  mss : int;
  window : int;            (* receive window we advertise *)
  rto_initial : Sim.Stime.t;
  rto_max : Sim.Stime.t;
  msl : Sim.Stime.t;
  max_retransmits : int;
  delack : Sim.Stime.t;    (* delayed-ACK timer *)
  delack_segments : int;   (* ack at least every N in-order segments *)
  rto_min : Sim.Stime.t;   (* floor for the adaptive RTO *)
  nagle : bool;            (* coalesce sub-MSS sends while data is in flight *)
  initial_window_segments : int; (* initial congestion window, in MSS *)
}

let default_config ?(mss = 1460) ?(window = 65535) ?(nagle = false)
    ?(initial_window_segments = 2) () =
  {
    mss;
    window;
    rto_initial = Sim.Stime.ms 200;
    rto_max = Sim.Stime.s 60;
    msl = Sim.Stime.s 30;
    max_retransmits = 12;
    delack = Sim.Stime.ms 50;
    delack_segments = 2;
    rto_min = Sim.Stime.ms 50;
    nagle;
    initial_window_segments;
  }

type env = {
  engine : Sim.Engine.t;            (* clock and timers *)
  tx : Mbuf.rw Mbuf.t -> unit;
      (* transmit a TCP segment (header+payload) toward the remote *)
  on_receive : Mbuf.ro Mbuf.t -> View.ro View.t -> unit;
      (* in-order application data, lying in the frame; valid for the
         call only *)
  on_established : unit -> unit;
  on_peer_close : unit -> unit;     (* FIN received (EOF) *)
  on_close : unit -> unit;          (* connection fully gone *)
  on_error : string -> unit;
}

type counters = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable dup_acks : int;
  mutable ooo_drops : int;
}

(* An out-of-order segment's new bytes, still in the frame they arrived
   in, which the entry holds. *)
type held = { h_frame : Mbuf.ro Mbuf.t; h_data : View.ro View.t }

type t = {
  env : env;
  cfg : config;
  local_ip : Ipaddr.t;
  local_port : int;
  mutable remote_ip : Ipaddr.t;
  mutable remote_port : int;
  mutable state : state;
  (* send side *)
  mutable iss : Seq.t;
  mutable snd_una : Seq.t;
  mutable snd_nxt : Seq.t;
  mutable snd_wnd : int;          (* peer's advertised window *)
  mutable cwnd : int;
  mutable ssthresh : int;
  sndq : Byteq.t;
  mutable qseq : Seq.t;           (* sequence number of sndq's head byte *)
  mutable fin_pending : bool;
  mutable fin_seq : Seq.t option; (* sequence our FIN occupies, once sent *)
  (* receive side *)
  mutable irs : Seq.t;
  mutable rcv_nxt : Seq.t;
  ooo : (int, held) Hashtbl.t;    (* out-of-order segments by seq *)
  mutable ooo_bytes : int;        (* payload bytes [ooo] holds *)
  (* timers *)
  mutable rto : Sim.Stime.t;
  mutable rto_backoff : int;
  mutable retx_count : int;
  mutable retx_timer : Sim.Engine.handle option;
  mutable msl_timer : Sim.Engine.handle option;
  mutable delack_count : int;
  mutable delack_timer : Sim.Engine.handle option;
  (* Jacobson RTT estimation with Karn's algorithm: one timed segment at
     a time, samples discarded across retransmissions. *)
  mutable srtt_ns : float;            (* smoothed RTT; 0 until first sample *)
  mutable rttvar_ns : float;
  mutable timed_seg : (Seq.t * Sim.Stime.t) option;
  mutable rtt_samples : int;
  counters : counters;
}

let create env cfg ~local:(local_ip, local_port) =
  {
    env;
    cfg;
    local_ip;
    local_port;
    remote_ip = Ipaddr.any;
    remote_port = 0;
    state = Closed;
    iss = Seq.of_int 0;
    snd_una = Seq.of_int 0;
    snd_nxt = Seq.of_int 0;
    snd_wnd = cfg.window;
    cwnd = Int.max 1 cfg.initial_window_segments * cfg.mss;
    ssthresh = 65535;
    sndq = Byteq.create ();
    qseq = Seq.of_int 0;
    fin_pending = false;
    fin_seq = None;
    irs = Seq.of_int 0;
    rcv_nxt = Seq.of_int 0;
    ooo = Hashtbl.create 8;
    ooo_bytes = 0;
    rto = cfg.rto_initial;
    rto_backoff = 1;
    retx_count = 0;
    retx_timer = None;
    msl_timer = None;
    delack_count = 0;
    delack_timer = None;
    srtt_ns = 0.;
    rttvar_ns = 0.;
    timed_seg = None;
    rtt_samples = 0;
    counters =
      {
        segs_out = 0;
        segs_in = 0;
        bytes_out = 0;
        bytes_in = 0;
        retransmits = 0;
        fast_retransmits = 0;
        dup_acks = 0;
        ooo_drops = 0;
      };
  }

let state t = t.state
let counters t = t.counters
let local_endpoint t = (t.local_ip, t.local_port)
let in_flight t = Seq.diff t.snd_nxt t.snd_una
let srtt t = Sim.Stime.ns (int_of_float t.srtt_ns)
let rtt_samples t = t.rtt_samples

(* Fold an RTT sample into the smoothed estimators and derive the RTO
   (RFC 6298 constants). *)
let record_rtt_sample t sample =
  let s = float_of_int (Sim.Stime.to_ns sample) in
  if t.rtt_samples = 0 then begin
    t.srtt_ns <- s;
    t.rttvar_ns <- s /. 2.
  end
  else begin
    t.rttvar_ns <- (0.75 *. t.rttvar_ns) +. (0.25 *. abs_float (t.srtt_ns -. s));
    t.srtt_ns <- (0.875 *. t.srtt_ns) +. (0.125 *. s)
  end;
  t.rtt_samples <- t.rtt_samples + 1;
  let rto = t.srtt_ns +. (4. *. t.rttvar_ns) in
  t.rto <-
    Sim.Stime.max t.cfg.rto_min
      (Sim.Stime.min t.cfg.rto_max (Sim.Stime.ns (int_of_float rto)))

(* --- out-of-order queue --------------------------------------------- *)

(* Let go of every held out-of-order segment: the connection delivers
   no more data. *)
let flush_ooo t =
  if Hashtbl.length t.ooo > 0 then begin
    Hashtbl.iter (fun _ e -> Mbuf.release e.h_frame) t.ooo;
    Hashtbl.clear t.ooo;
    t.ooo_bytes <- 0
  end

(* --- timers ------------------------------------------------------- *)

let set_timer t delay fn = Some (Sim.Engine.schedule_in t.env.engine ~delay fn)

let cancel_timer t = function
  | Some h -> Sim.Engine.cancel t.env.engine h
  | None -> ()

let stop_retx_timer t =
  match t.retx_timer with
  | Some h ->
      Sim.Engine.cancel t.env.engine h;
      t.retx_timer <- None
  | None -> ()

let rec arm_retx_timer t =
  stop_retx_timer t;
  let delay = Sim.Stime.min t.cfg.rto_max (Sim.Stime.mul t.rto t.rto_backoff) in
  t.retx_timer <- set_timer t delay (fun () -> on_retx_timeout t)

(* --- segment emission ---------------------------------------------- *)

(* Send one segment whose payload is the [len] bytes [off] bytes into the
   send queue, written once, straight into the segment's mbuf. *)
and emit t ~seq ~flags ~off ~len =
  (* Any segment carrying ACK satisfies a pending delayed ACK. *)
  if Flags.test flags Flags.ack then begin
    t.delack_count <- 0;
    match t.delack_timer with
    | Some h ->
        Sim.Engine.cancel t.env.engine h;
        t.delack_timer <- None
    | None -> ()
  end;
  let hdr =
    {
      Tcp_wire.src_port = t.local_port;
      dst_port = t.remote_port;
      seq;
      ack = t.rcv_nxt;
      flags;
      window = t.cfg.window land 0xffff;
    }
  in
  let pkt =
    Tcp_wire.to_packet ~src:t.local_ip ~dst:t.remote_ip hdr t.sndq ~off ~len
  in
  t.counters.segs_out <- t.counters.segs_out + 1;
  t.counters.bytes_out <- t.counters.bytes_out + len;
  t.env.tx pkt

(* A segment without payload. *)
and control t ~seq ~flags = emit t ~seq ~flags ~off:0 ~len:0

and send_ack t = control t ~seq:t.snd_nxt ~flags:Flags.ack

(* BSD-style delayed acknowledgement: ack every [delack_segments]
   in-order segments, or when the timer fires, whichever is first. *)
and schedule_delack t =
  t.delack_count <- t.delack_count + 1;
  if t.delack_count >= t.cfg.delack_segments then send_ack t
  else if t.delack_timer = None then
    t.delack_timer <-
      set_timer t t.cfg.delack (fun () ->
          t.delack_timer <- None;
          if t.delack_count > 0 then send_ack t)

(* --- closing helpers ------------------------------------------------ *)

and enter_time_wait t =
  set_state t Time_wait;
  flush_ooo t;
  stop_retx_timer t;
  cancel_timer t t.delack_timer;
  t.delack_timer <- None;
  cancel_timer t t.msl_timer;
  t.msl_timer <-
    set_timer t (Sim.Stime.mul t.cfg.msl 2) (fun () ->
        flush_ooo t;
        set_state t Closed;
        t.env.on_close ())

and set_state t s =
  if t.state <> s then t.state <- s

and teardown t reason =
  stop_retx_timer t;
  cancel_timer t t.msl_timer;
  t.msl_timer <- None;
  cancel_timer t t.delack_timer;
  t.delack_timer <- None;
  t.delack_count <- 0;
  flush_ooo t;
  set_state t Closed;
  if reason <> "" then t.env.on_error reason;
  t.env.on_close ()

(* --- transmission -------------------------------------------------- *)

and try_output t =
  match t.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
      let progress = ref true in
      while !progress do
        progress := false;
        let sent_off = Seq.diff t.snd_nxt t.qseq in
        let avail = Byteq.length t.sndq - sent_off in
        let flight = in_flight t in
        let wnd = Int.min t.snd_wnd t.cwnd in
        let room = wnd - flight in
        let n = Int.min (Int.min avail t.cfg.mss) room in
        let nagle_holds =
          t.cfg.nagle && n > 0 && n < t.cfg.mss && n = avail && flight > 0
          && not t.fin_pending
        in
        if n > 0 && not nagle_holds then begin
          let flags =
            if avail = n then Flags.(ack + psh) else Flags.ack
          in
          if t.timed_seg = None then
            t.timed_seg <- Some (t.snd_nxt, Sim.Engine.now t.env.engine);
          emit t ~seq:t.snd_nxt ~flags ~off:sent_off ~len:n;
          t.snd_nxt <- Seq.add t.snd_nxt n;
          if t.retx_timer = None then arm_retx_timer t;
          progress := true
        end
        else if
          t.fin_pending && t.fin_seq = None && avail = 0
          && (t.state = Established || t.state = Close_wait)
        then begin
          (* all data is out: send FIN *)
          control t ~seq:t.snd_nxt ~flags:Flags.(ack + fin);
          t.fin_seq <- Some t.snd_nxt;
          t.snd_nxt <- Seq.add t.snd_nxt 1;
          set_state t (if t.state = Established then Fin_wait_1 else Last_ack);
          if t.retx_timer = None then arm_retx_timer t
        end
      done
  | _ -> ()

(* --- retransmission ------------------------------------------------- *)

and retransmit_head t =
  t.counters.retransmits <- t.counters.retransmits + 1;
  t.timed_seg <- None;
  if Seq.lt t.snd_una t.snd_nxt then begin
    if t.snd_una = t.iss then
      (* SYN outstanding *)
      control t ~seq:t.iss
        ~flags:(if t.state = Syn_rcvd then Flags.(syn + ack) else Flags.syn)
    else
      match t.fin_seq with
      | Some fs when t.snd_una = fs -> control t ~seq:fs ~flags:Flags.(ack + fin)
      | _ ->
          let avail = Byteq.length t.sndq in
          let n = Int.min avail t.cfg.mss in
          let n =
            (* do not retransmit past snd_nxt (or FIN) *)
            Int.min n (Seq.diff t.snd_nxt t.snd_una)
          in
          if n > 0 then emit t ~seq:t.snd_una ~flags:Flags.ack ~off:0 ~len:n
  end

and on_retx_timeout t =
  t.retx_timer <- None;
  if Seq.lt t.snd_una t.snd_nxt then begin
    t.retx_count <- t.retx_count + 1;
    if t.retx_count > t.cfg.max_retransmits then
      teardown t "too many retransmissions"
    else begin
      (* multiplicative backoff; collapse the congestion window *)
      t.ssthresh <- Int.max (in_flight t / 2) (2 * t.cfg.mss);
      t.cwnd <- t.cfg.mss;
      t.rto_backoff <- Int.min (t.rto_backoff * 2) 64;
      retransmit_head t;
      arm_retx_timer t
    end
  end

(* --- API ------------------------------------------------------------ *)

let connect t ~remote:(rip, rport) ~iss =
  if t.state <> Closed then invalid_arg "Tcp.connect: not CLOSED";
  t.remote_ip <- rip;
  t.remote_port <- rport;
  t.iss <- iss;
  t.snd_una <- iss;
  t.snd_nxt <- Seq.add iss 1;
  t.qseq <- Seq.add iss 1;
  set_state t Syn_sent;
  control t ~seq:iss ~flags:Flags.syn;
  arm_retx_timer t

let fresh_iss engine =
  Seq.of_int (Sim.Rng.int (Sim.Engine.rng engine) 0x0fffffff)

let sendv t chunks =
  match t.state with
  | Established | Close_wait | Syn_sent | Syn_rcvd ->
      if t.fin_pending then invalid_arg "Tcp.send: closing";
      List.iter (Byteq.push t.sndq) chunks;
      try_output t
  | s -> invalid_arg ("Tcp.send: bad state " ^ state_to_string s)

let send t data = sendv t [ data ]

(* On a CLOSED engine the connection has already ended (and reported
   [on_close]) or never begun: nothing to do. *)
let close t =
  match t.state with
  | Closed -> ()
  | Syn_sent -> teardown t ""
  | Established | Close_wait | Syn_rcvd ->
      t.fin_pending <- true;
      try_output t
  | _ -> ()

let abort t =
  if t.state <> Closed && t.remote_port <> 0 then
    control t ~seq:t.snd_nxt ~flags:Flags.rst;
  teardown t "connection aborted"

(* --- acknowledgement processing -------------------------------------- *)

let dupack_threshold = 3

let process_ack t (h : Tcp_wire.header) =
  let ack = h.ack in
  if Seq.gt ack t.snd_nxt then (* acks data we never sent *) ()
  else if Seq.le ack t.snd_una then begin
    (* duplicate *)
    if in_flight t > 0 && ack = t.snd_una then begin
      t.counters.dup_acks <- t.counters.dup_acks + 1;
      if t.counters.dup_acks mod dupack_threshold = 0 then begin
        t.counters.fast_retransmits <- t.counters.fast_retransmits + 1;
        t.ssthresh <- Int.max (in_flight t / 2) (2 * t.cfg.mss);
        t.cwnd <- t.ssthresh;
        retransmit_head t
      end
    end
  end
  else begin
    (* new data acknowledged *)
    (* payload bytes covered by this ack *)
    let fin_acked = match t.fin_seq with Some fs -> Seq.gt ack fs | None -> false in
    let payload_hi =
      match t.fin_seq with Some fs when Seq.gt ack fs -> fs | _ -> ack
    in
    let payload_acked =
      if Seq.gt payload_hi t.qseq then Seq.diff payload_hi t.qseq else 0
    in
    let payload_acked = Int.min payload_acked (Byteq.length t.sndq) in
    if payload_acked > 0 then begin
      Byteq.drop t.sndq payload_acked;
      t.qseq <- Seq.add t.qseq payload_acked
    end;
    (match t.timed_seg with
    | Some (seq, sent_at) when Seq.gt ack seq ->
        t.timed_seg <- None;
        let now = Sim.Engine.now t.env.engine in
        record_rtt_sample t (Sim.Stime.sub now sent_at)
    | _ -> ());
    t.snd_una <- ack;
    t.retx_count <- 0;
    t.rto_backoff <- 1;
    (* congestion control: slow start then congestion avoidance *)
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + t.cfg.mss
    else t.cwnd <- t.cwnd + Int.max 1 (t.cfg.mss * t.cfg.mss / t.cwnd);
    if in_flight t = 0 then stop_retx_timer t else arm_retx_timer t;
    if fin_acked then begin
      match t.state with
      | Fin_wait_1 -> set_state t Fin_wait_2
      | Closing -> enter_time_wait t
      | Last_ack -> teardown t ""
      | _ -> ()
    end
  end;
  t.snd_wnd <- Int.max h.window 1

(* --- in-order delivery ----------------------------------------------- *)

(* Hand [data], lying in [frame], to the application: the view is valid
   for the callback only. *)
let deliver t frame data =
  let n = View.length data in
  t.rcv_nxt <- Seq.add t.rcv_nxt n;
  t.counters.bytes_in <- t.counters.bytes_in + n;
  t.env.on_receive frame data

(* Deliver what the held segments add at [rcv_nxt]: one that starts at
   or before it gives its unseen tail, one wholly below it is let go. *)
let rec drain_ooo t =
  if Hashtbl.length t.ooo > 0 then begin
    let next = ref None in
    Hashtbl.filter_map_inplace
      (fun seq e ->
        let seq = Seq.of_int seq and len = View.length e.h_data in
        let skip = Seq.diff t.rcv_nxt seq in
        if Seq.gt seq t.rcv_nxt || (skip < len && Option.is_some !next) then
          Some e
        else begin
          t.ooo_bytes <- t.ooo_bytes - len;
          if skip < len then next := Some (e, skip) else Mbuf.release e.h_frame;
          None
        end)
      t.ooo;
    match !next with
    | None -> ()
    | Some (e, skip) ->
        deliver t e.h_frame
          (View.sub e.h_data ~off:skip ~len:(View.length e.h_data - skip));
        Mbuf.release e.h_frame;
        drain_ooo t
  end

(* Keep an out-of-order segment's bytes by holding its frame.  The queue
   is capped at 256 segments and at the advertised window in bytes; a
   segment past either cap is dropped, and the peer retransmits it. *)
let hold_ooo t seq frame data =
  let key = Seq.to_int seq in
  let old = Hashtbl.find_opt t.ooo key in
  let replaced = match old with Some e -> View.length e.h_data | None -> 0 in
  let bytes = t.ooo_bytes + View.length data - replaced in
  if Hashtbl.length t.ooo < 256 && bytes <= t.cfg.window then begin
    Mbuf.hold frame;
    Option.iter (fun e -> Mbuf.release e.h_frame) old;
    Hashtbl.replace t.ooo key { h_frame = frame; h_data = data };
    t.ooo_bytes <- bytes
  end
  else t.counters.ooo_drops <- t.counters.ooo_drops + 1

(* The [len] payload bytes at [off] in segment [v], which lies in
   [frame], from sequence [seq].  Nothing is copied: in-order bytes go
   to the application as a view, out-of-order ones stay in their held
   frame. *)
let process_payload t seq frame v ~off ~len =
  if len = 0 then `No_payload
  else if Seq.le (Seq.add seq len) t.rcv_nxt then `Duplicate
  else begin
    (* trim anything before rcv_nxt *)
    let skip = if Seq.lt seq t.rcv_nxt then Seq.diff t.rcv_nxt seq else 0 in
    let seq = Seq.add seq skip in
    let data = View.sub v ~off:(off + skip) ~len:(len - skip) in
    if seq = t.rcv_nxt then begin
      deliver t frame data;
      drain_ooo t;
      `Delivered
    end
    else begin
      hold_ooo t seq frame data;
      `Out_of_order
    end
  end

(* --- segment input ---------------------------------------------------- *)

(* Passive open from an opening SYN: answer SYN|ACK from [iss]. *)
let accept t ~remote:(rip, rport) ~iss v =
  if t.state <> Closed then invalid_arg "Tcp.accept: not CLOSED";
  t.counters.segs_in <- t.counters.segs_in + 1;
  t.remote_ip <- rip;
  t.remote_port <- rport;
  let seq = Tcp_wire.get_seq v in
  t.irs <- seq;
  t.rcv_nxt <- Seq.add seq 1;
  t.iss <- iss;
  t.snd_una <- iss;
  t.snd_nxt <- Seq.add iss 1;
  t.qseq <- Seq.add iss 1;
  set_state t Syn_rcvd;
  control t ~seq:iss ~flags:Flags.(syn + ack);
  arm_retx_timer t

let input t frame (v : View.ro View.t) =
  t.counters.segs_in <- t.counters.segs_in + 1;
  let h = Tcp_wire.read v and data_off = Tcp_wire.get_data_off v in
  let len = View.length v - data_off in
  let has f = Flags.test h.flags f in
  match t.state with
  | Closed -> ()
  | Syn_sent ->
      if has Flags.rst then teardown t "connection refused"
      else if has Flags.syn && has Flags.ack && h.ack = t.snd_nxt then begin
        t.irs <- h.seq;
        t.rcv_nxt <- Seq.add h.seq 1;
        t.snd_una <- h.ack;
        t.snd_wnd <- Int.max h.window 1;
        t.retx_count <- 0;
        t.rto_backoff <- 1;
        stop_retx_timer t;
        set_state t Established;
        send_ack t;
        t.env.on_established ();
        try_output t
      end
  | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
      if has Flags.rst then teardown t "connection reset by peer"
      else if has Flags.syn && t.state = Syn_rcvd then
        (* SYN retransmission in SYN_RCVD: re-ack *)
        control t ~seq:t.iss ~flags:Flags.(syn + ack)
      else begin
        if has Flags.ack then begin
          if t.state = Syn_rcvd && Seq.gt h.ack t.snd_una then begin
            set_state t Established;
            t.env.on_established ()
          end;
          process_ack t h
        end;
        let ack_class = process_payload t h.seq frame v ~off:data_off ~len in
        (* FIN processing: in sequence only *)
        let fin_seq = Seq.add h.seq len in
        let got_fin = has Flags.fin && fin_seq = t.rcv_nxt in
        if got_fin then begin
          t.rcv_nxt <- Seq.add t.rcv_nxt 1;
          t.env.on_peer_close ();
          match t.state with
          | Established -> set_state t Close_wait
          | Fin_wait_1 ->
              (* if our FIN was acked we'd be in FIN_WAIT_2 already *)
              set_state t Closing
          | Fin_wait_2 -> enter_time_wait t
          | _ -> ()
        end;
        (if got_fin then send_ack t
         else
           match ack_class with
           | `No_payload -> if t.state = Time_wait then send_ack t
           | `Duplicate | `Out_of_order ->
               (* immediate ack so the sender sees dup-acks *)
               send_ack t
           | `Delivered ->
               if has Flags.psh then send_ack t else schedule_delack t);
        try_output t
      end
