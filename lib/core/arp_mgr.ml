(* The ARP protocol manager: answers requests for the host's address and
   resolves peer addresses for the IP send path. *)

type t = {
  ether : Ether_mgr.t;
  ip : Proto.Ipaddr.t;
  trace : Observe.Trace.t;
  cache : Proto.Arp.Cache.t;
  engine : Sim.Engine.t;
  retry_interval : Sim.Stime.t;
  max_retries : int;
  pending : (Proto.Ipaddr.t, int) Hashtbl.t; (* outstanding request count *)
  mutable requests_sent : int;
  mutable replies_sent : int;
  mutable resolution_failures : int;
  mutable waiters_dropped : int;
}

let send_arp t msg =
  let pkt = Proto.Arp.to_packet msg in
  let dst =
    if msg.Proto.Arp.op = Proto.Arp.op_request then Proto.Ether.Mac.broadcast
    else msg.Proto.Arp.target_mac
  in
  Ether_mgr.send t.ether (Ether_mgr.prio t.ether) ~dst
    ~etype:Proto.Ether.etype_arp pkt

let create ?(retry_interval = Sim.Stime.s 1) ?(max_retries = 3) graph ether
    ~ip =
  let host = Graph.host graph in
  let t =
    {
      ether;
      ip;
      trace = Graph.trace graph;
      cache = Proto.Arp.Cache.create ();
      engine = Netsim.Host.engine host;
      retry_interval;
      max_retries;
      pending = Hashtbl.create 4;
      requests_sent = 0;
      replies_sent = 0;
      resolution_failures = 0;
      waiters_dropped = 0;
    }
  in
  let costs = Netsim.Host.costs host in
  let handle ctx =
    let v = View.shift (Pctx.view ctx) Proto.Ether.header_len in
    match Proto.Arp.parse v with
    | None -> ()
    | Some msg ->
        let now = Sim.Engine.now t.engine in
        Proto.Arp.Cache.insert t.cache ~now msg.Proto.Arp.sender_ip
          msg.Proto.Arp.sender_mac;
        Hashtbl.remove t.pending msg.Proto.Arp.sender_ip;
        if
          msg.Proto.Arp.op = Proto.Arp.op_request
          && Proto.Ipaddr.equal msg.Proto.Arp.target_ip t.ip
        then begin
          t.replies_sent <- t.replies_sent + 1;
          send_arp t (Proto.Arp.reply_to msg ~mac:(Ether_mgr.mac ether))
        end
  in
  let (_ : unit -> unit) =
    Ether_mgr.install_protocol ether ~child:"arp"
      ~guard:(Ether_mgr.etype_guard Proto.Ether.etype_arp)
      ~keys:[ Filter.ether_type_key Proto.Ether.etype_arp ]
      ~exact:true ~cacheable:true ~cost:costs.Netsim.Costs.layer.ether_in
      handle
  in
  t

let cache t = t.cache
let requests_sent t = t.requests_sent
let replies_sent t = t.replies_sent
let resolution_failures t = t.resolution_failures
let waiters_dropped t = t.waiters_dropped
let pending_count t = Hashtbl.length t.pending

let send_request t dst =
  t.requests_sent <- t.requests_sent + 1;
  send_arp t
    (Proto.Arp.request ~sender_mac:(Ether_mgr.mac t.ether) ~sender_ip:t.ip
       ~target_ip:dst)

(* Retransmit unanswered requests; after [max_retries] the resolution is
   abandoned (queued packets for it are dropped, like a BSD arp stall).
   Abandonment also cancels the continuations queued on the cache: if it
   did not, a reply arriving after the budget was spent would fire them
   and transmit packets the sender gave up on long ago. *)
let rec arm_retry t dst =
  ignore
    (Sim.Engine.schedule_in t.engine ~delay:t.retry_interval (fun () ->
         match Hashtbl.find_opt t.pending dst with
         | None -> () (* resolved in the meantime *)
         | Some tries ->
             if tries >= t.max_retries then begin
               Hashtbl.remove t.pending dst;
               t.resolution_failures <- t.resolution_failures + 1;
               let dropped = Proto.Arp.Cache.cancel_waiters t.cache dst in
               t.waiters_dropped <- t.waiters_dropped + dropped;
               if Observe.Trace.active t.trace then
                 Observe.Trace.emit t.trace
                   {
                     Observe.Trace.at_ns =
                       Sim.Stime.to_ns (Sim.Engine.now t.engine);
                     event =
                       Observe.Trace.Drop
                         { scope = "arp"; reason = "resolution_failed" };
                   }
             end
             else begin
               Hashtbl.replace t.pending dst (tries + 1);
               send_request t dst;
               arm_retry t dst
             end))

let cached t dst =
  Proto.Arp.Cache.find_mac t.cache ~now:(Sim.Engine.now t.engine) dst

(* Resolve an IP address to a MAC, asynchronously on a miss. *)
let resolve t dst k =
  let mac = cached t dst in
  if not (Proto.Ether.Mac.equal mac Proto.Ether.Mac.none) then k mac
  else begin
    Proto.Arp.Cache.wait t.cache dst k;
    if not (Hashtbl.mem t.pending dst) then begin
      Hashtbl.replace t.pending dst 1;
      send_request t dst;
      arm_retry t dst
    end
  end

(* Pre-populate the cache (experiments measure steady state, as the
   paper's do).  The entry is static: a run long enough to outlive the
   cache TTL must not start resolving mid-measurement. *)
let prime t dst mac = Proto.Arp.Cache.insert_static t.cache dst mac
