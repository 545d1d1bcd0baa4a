(* Model-based fuzzing of the protocol graph: random interleavings of
   binds, handler installs/uninstalls, sends (including to dead ports,
   oversized datagrams, and forged claims) and extension link/unlink
   must never crash the kernel, and the counters must stay consistent
   with a simple model. *)

let prop t = QCheck_alcotest.to_alcotest t

type op =
  | Bind of int            (* port offset *)
  | Unbind of int
  | Send of int * int      (* port offset, payload size *)
  | Send_forged of int
  | Link_am
  | Unlink_am
  | Blast_unknown_port

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Bind p) (int_bound 4));
        (1, map (fun p -> Unbind p) (int_bound 4));
        (6, map2 (fun p s -> Send (p, s)) (int_bound 4) (int_bound 3000));
        (1, map (fun p -> Send_forged p) (int_bound 4));
        (1, return Link_am);
        (1, return Unlink_am);
        (1, return Blast_unknown_port);
      ])

let pp_op = function
  | Bind p -> Printf.sprintf "Bind %d" p
  | Unbind p -> Printf.sprintf "Unbind %d" p
  | Send (p, s) -> Printf.sprintf "Send (%d, %d)" p s
  | Send_forged p -> Printf.sprintf "Send_forged %d" p
  | Link_am -> "Link_am"
  | Unlink_am -> "Unlink_am"
  | Blast_unknown_port -> "Blast_unknown_port"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (1 -- 40) op_gen)

let run_ops ops =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"fuzz" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let bound : (int, Plexus.Endpoint.t * (unit -> unit)) Hashtbl.t =
    Hashtbl.create 8
  in
  let received = ref 0 in
  let model_sent_to_bound = ref 0 in
  let am_linked = ref None in
  (* Each operation runs to quiescence, so the model is exact: a datagram
     is delivered iff its port was bound when it was sent. *)
  let step op =
      match op with
      | Bind poff -> (
          let port = 7000 + poff in
          match Plexus.Udp_mgr.bind udp_b ~owner:"fuzz" ~port with
          | Ok ep ->
              let un =
                Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr received)
              in
              Hashtbl.replace bound port (ep, un)
          | Error (`Port_in_use _) -> ())
      | Unbind poff -> (
          let port = 7000 + poff in
          match Hashtbl.find_opt bound port with
          | Some (ep, un) ->
              un ();
              Plexus.Udp_mgr.unbind udp_b ep;
              Hashtbl.remove bound port
          | None -> ())
      | Send (poff, size) ->
          let port = 7000 + poff in
          if Hashtbl.mem bound port then incr model_sent_to_bound;
          Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, port)
            (String.make (max 1 size) 'f')
      | Send_forged poff ->
          let port = 7000 + poff in
          if Hashtbl.mem bound port then incr model_sent_to_bound;
          (match
             Plexus.Udp_mgr.send_claiming udp_a client ~claimed_src_port:666
               ~dst:(Experiments.Common.ip_b, port)
               "forged"
           with
          | Ok () -> ()
          | Error `Spoof_rejected ->
              (* only possible under Verify policy, which we never set *)
              assert false)
      | Link_am ->
          if !am_linked = None then begin
            let _ctx, ext =
              Apps.Active_messages.extension ~name:"fuzz-am"
                ~handlers:(fun _ _ ~src:_ _ -> Spin.Ephemeral.nothing)
                ()
            in
            match Plexus.Stack.link p.Experiments.Common.b ext with
            | Ok l -> am_linked := Some l
            | Error _ -> ()
          end
      | Unlink_am -> (
          match !am_linked with
          | Some l ->
              Spin.Linker.unlink l;
              am_linked := None
          | None -> ())
      | Blast_unknown_port ->
          Plexus.Udp_mgr.send udp_a client
            ~dst:(Experiments.Common.ip_b, 4444)
            "nobody"
  in
  List.iter
    (fun op ->
      step op;
      Sim.Engine.run p.Experiments.Common.engine ~max_events:1_000_000)
    ops;
  let cb = Plexus.Udp_mgr.counters udp_b in
  let disp_b =
    Spin.Kernel.dispatcher
      (Netsim.Host.kernel (Plexus.Stack.host p.Experiments.Common.b))
  in
  (* Invariants:
     - the kernel never faulted;
     - handlers fired exactly once per datagram sent to a bound port;
     - the UDP layer's accounting agrees with the model;
     - sends to unbound ports were counted and answered with ICMP. *)
  Spin.Dispatcher.faults disp_b = 0
  && !received = !model_sent_to_bound
  && cb.Plexus.Udp_mgr.delivered = !model_sent_to_bound
  && cb.Plexus.Udp_mgr.no_port = cb.Plexus.Udp_mgr.unreachable_sent

let fuzz_graph =
  QCheck.Test.make ~count:60 ~name:"random graph workloads keep invariants"
    arb_ops run_ops

let suite = [ ("fuzz.graph", [ prop fuzz_graph ]) ]

(* ---- parser robustness: random bytes never crash a codec ---------------- *)

let random_bytes = QCheck.(string_of_size Gen.(0 -- 200))

let never_raises name f =
  QCheck.Test.make ~count:300 ~name random_bytes (fun s ->
      match f (View.of_string s) with _ -> true | exception _ -> false)

let parser_fuzz =
  [
    never_raises "Ether.parse total" (fun v -> ignore (Proto.Ether.parse v));
    never_raises "Ipv4.parse total" (fun v ->
        ignore (Proto.Ipv4.parse v);
        ignore (Proto.Ipv4.checksum_valid v);
        ignore (Proto.Ipv4.check ~host:(Proto.Ipaddr.v 5 6 7 8) v));
    never_raises "Udp.parse/valid total" (fun v ->
        ignore (Proto.Udp.parse v);
        ignore
          (Proto.Udp.check ~src:(Proto.Ipaddr.v 1 2 3 4)
             ~dst:(Proto.Ipaddr.v 5 6 7 8) v));
    never_raises "Tcp_wire.parse total" (fun v ->
        match Proto.Tcp_wire.parse v with
        | Some (_, off) ->
            (* the advertised data offset is always within the segment *)
            assert (off <= View.length v)
        | None -> ());
    never_raises "Icmp.parse/valid total" (fun v ->
        ignore (Proto.Icmp.parse v);
        ignore (Proto.Icmp.valid v));
    never_raises "Arp.parse total" (fun v -> ignore (Proto.Arp.parse v));
  ]

let http_fuzz =
  QCheck.Test.make ~count:300 ~name:"Http parsers total" random_bytes (fun s ->
      match
        ( Proto.Http.parse_request s,
          Proto.Http.parse_response s )
      with
      | _ -> true
      | exception _ -> false)

(* Random segments through the one TCP receive path: [Tcp_wire.check],
   then [Tcp.accept] for an opening SYN and [Tcp.input] on a connection
   a valid SYN opened.  Half the segments get a valid checksum and data
   offset, so the engine sees them; none may raise. *)
let tcp_input_fuzz =
  QCheck.Test.make ~count:300
    ~name:"Tcp.input total on random segments past Tcp_wire.check"
    QCheck.(triple small_int (string_of_size Gen.(0 -- 120)) bool)
    (fun (seed, junk, fix) ->
      let local = Proto.Ipaddr.v 10 0 0 1 and remote = Proto.Ipaddr.v 10 0 0 2 in
      let engine = Sim.Engine.create ~seed () in
      let env =
        {
          Proto.Tcp.engine;
          tx = (fun _ -> ());
          on_receive = (fun _ _ -> ());
          on_established = ignore;
          on_peer_close = ignore;
          on_close = ignore;
          on_error = ignore;
        }
      in
      let fresh () =
        Proto.Tcp.create env (Proto.Tcp.default_config ()) ~local:(local, 80)
      in
      let iss = Proto.Tcp_wire.Seq.of_int 5000 in
      let opened = fresh () in
      Proto.Tcp.accept opened ~remote:(remote, 1000) ~iss
        (View.ro
           (Mbuf.view
              (Segment.tcp ~src:remote ~dst:local
                 {
                   Proto.Tcp_wire.src_port = 1000;
                   dst_port = 80;
                   seq = Proto.Tcp_wire.Seq.of_int 77;
                   ack = Proto.Tcp_wire.Seq.of_int 0;
                   flags = Proto.Tcp_wire.Flags.syn;
                   window = 8192;
                 }
                 "")));
      let frame = Mbuf.of_string junk in
      let v = Mbuf.view frame in
      if fix && View.length v >= Proto.Tcp_wire.header_len then begin
        View.set_u8 v Proto.Tcp_wire.Off.data_off 0x50;
        View.set_u16 v Proto.Tcp_wire.Off.cksum 0;
        View.set_u16 v Proto.Tcp_wire.Off.cksum
          (Proto.Tcp_wire.compute_cksum ~src:remote ~dst:local v)
      end;
      let v = View.ro v in
      match
        match Proto.Tcp_wire.check ~src:remote ~dst:local v with
        | Some _ -> ()
        | None ->
            if Proto.Tcp_wire.opening_syn v then
              Proto.Tcp.accept (fresh ()) ~remote:(remote, 1000) ~iss v;
            Proto.Tcp.input opened (Mbuf.ro frame) v;
            Sim.Engine.run engine ~until:(Sim.Stime.s 1)
      with
      | () -> true
      | exception _ -> false)

let suite =
  suite
  @ [
      ("fuzz.parsers", List.map prop parser_fuzz @ [ prop http_fuzz ]);
      ("fuzz.tcp", [ prop tcp_input_fuzz ]);
    ]

(* ---- filter compiler and dispatch-tree equivalence ---------------------- *)

(* Random filter ASTs over random packet contexts: the tree interpreter
   ([Filter.eval], the reference semantics), the compiled instruction
   array ([Filter.run]) and tree dispatch must all agree — including
   on short packets and contexts with no parsed IP header or ports,
   where field reads are Unavailable. *)

let field_gen =
  QCheck.Gen.(
    let anchor = map (fun b -> if b then Plexus.Filter.Cur else Plexus.Filter.Abs) bool in
    frequency
      [
        (3, map2 (fun a o -> Plexus.Filter.U8 (a, o)) anchor (int_bound 40));
        (3, map2 (fun a o -> Plexus.Filter.U16 (a, o)) anchor (int_bound 40));
        (2, map2 (fun a o -> Plexus.Filter.U32 (a, o)) anchor (int_bound 40));
        (2, return Plexus.Filter.Ip_proto);
        (2, return Plexus.Filter.Src_port);
        (3, return Plexus.Filter.Dst_port);
        (2, return Plexus.Filter.Payload_len);
      ])

let filter_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          frequency
            [
              (1, return Plexus.Filter.True);
              (1, return Plexus.Filter.False);
              (4, map2 (fun f v -> Plexus.Filter.Eq (f, v)) field_gen (int_bound 300));
              (2, map2 (fun f v -> Plexus.Filter.Lt (f, v)) field_gen (int_bound 300));
              (2, map2 (fun f v -> Plexus.Filter.Gt (f, v)) field_gen (int_bound 300));
              ( 2,
                map3
                  (fun f m v -> Plexus.Filter.Mask (f, m, v))
                  field_gen (int_bound 0xffff) (int_bound 0xffff) );
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (2, leaf);
              (3, map2 (fun a b -> Plexus.Filter.And (a, b)) (self (n / 2)) (self (n / 2)));
              (3, map2 (fun a b -> Plexus.Filter.Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Plexus.Filter.Not a) (self (n - 1)));
            ]))

(* A context description: raw bytes plus optional parsed-header state,
   with the cursor possibly advanced past fake headers. *)
type ctx_desc = {
  bytes : string;
  ip_proto : int option;
  ports : (int * int) option;
  adv : int;
}

let ctx_gen =
  QCheck.Gen.(
    map
      (fun (bytes, ip_proto, ports, adv) -> { bytes; ip_proto; ports; adv })
      (quad
         (string_size ~gen:char (0 -- 80))
         (option (int_bound 255))
         (option (pair (int_bound 300) (int_bound 300)))
         (int_bound 30)))

(* One shared device for minting packet contexts. *)
let fuzz_dev =
  lazy
    (let engine = Sim.Engine.create () in
     let host =
       Netsim.Host.create engine ~name:"fuzz" ~ip:(Proto.Ipaddr.v 10 9 9 9)
     in
     Netsim.Host.add_device host (Netsim.Costs.loopback ()))

let make_ctx d =
  let dev = Lazy.force fuzz_dev in
  let ctx = Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string d.bytes)) in
  let ctx =
    match d.ip_proto with
    | None -> ctx
    | Some proto ->
        Plexus.Pctx.with_ip ctx
          (Proto.Ipv4.make ~proto ~src:(Proto.Ipaddr.v 10 0 0 1)
             ~dst:(Proto.Ipaddr.v 10 9 9 9)
             ~payload_len:(String.length d.bytes) ())
  in
  let ctx =
    match d.ports with
    | None -> ctx
    | Some (src_port, dst_port) -> Plexus.Pctx.with_ports ctx ~src_port ~dst_port
  in
  Plexus.Pctx.advance ctx (min d.adv (String.length d.bytes))

let pp_pair (f, d) =
  Format.asprintf "filter=%a bytes=%d ip=%s ports=%s adv=%d" Plexus.Filter.pp f
    (String.length d.bytes)
    (match d.ip_proto with None -> "-" | Some p -> string_of_int p)
    (match d.ports with
    | None -> "-"
    | Some (s, p) -> Printf.sprintf "%d,%d" s p)
    d.adv

let arb_filter_ctx =
  QCheck.make ~print:pp_pair QCheck.Gen.(pair filter_gen ctx_gen)

let compiled_eval_agree =
  QCheck.Test.make ~count:1000 ~name:"eval = run(compile) = compile_guard"
    arb_filter_ctx
    (fun (f, d) ->
      let ctx = make_ctx d in
      let reference = Plexus.Filter.eval f ctx in
      Plexus.Filter.run (Plexus.Filter.compile f) ctx = reference
      && Plexus.Filter.compile_guard f ctx = reference
      && Plexus.Filter.eval (Plexus.Filter.normalize f) ctx = reference)

(* Key-indexed dispatch delivers to exactly the handlers the linear
   interpreter would: install the same unrestricted random filters on two
   events — one with no key extractor and interpreted guards, one keyed
   (tree switches from [Filter.key_conjuncts], exact iff
   [Filter.keys_exact]) with compiled guards — and compare the accepted
   sets per packet. *)
let indexed_dispatch_agrees =
  QCheck.Test.make ~count:200 ~name:"indexed dispatch = linear interpreter"
    QCheck.(
      make
        ~print:(fun (fs, ds) ->
          String.concat "\n"
            (List.map (fun f -> Format.asprintf "%a" Plexus.Filter.pp f) fs)
          ^ Printf.sprintf "\n(%d packets)" (List.length ds))
        Gen.(pair (list_size (1 -- 8) filter_gen) (list_size (1 -- 6) ctx_gen)))
    (fun (filters, descs) ->
      let e = Sim.Engine.create () in
      let cpu = Sim.Cpu.create e ~name:"c" in
      let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
      let linear_ev = Spin.Dispatcher.event d "linear" in
      let indexed_ev = Spin.Dispatcher.event d "indexed" in
      Spin.Dispatcher.set_keyvfn indexed_ev ~dims:Plexus.Filter.num_key_dims
        Plexus.Filter.read_context_keys;
      let n = List.length filters in
      let linear_hits = Array.make n 0 and indexed_hits = Array.make n 0 in
      List.iteri
        (fun i f ->
          let (_ : unit -> unit) =
            Spin.Dispatcher.install linear_ev
              ~guard:(Plexus.Filter.eval f)
              ~cost:Sim.Stime.zero
              (fun _ -> linear_hits.(i) <- linear_hits.(i) + 1)
          in
          let prog = Plexus.Filter.compile f in
          let (_ : unit -> unit) =
            Spin.Dispatcher.install indexed_ev
              ~guard:(Plexus.Filter.run prog)
              ~keys:(Plexus.Filter.key_conjuncts f)
              ~exact:(Plexus.Filter.keys_exact f)
              ~cost:Sim.Stime.zero
              (fun _ -> indexed_hits.(i) <- indexed_hits.(i) + 1)
          in
          ())
        filters;
      List.iter
        (fun desc ->
          let ctx = make_ctx desc in
          Spin.Dispatcher.raise linear_ev ctx;
          Spin.Dispatcher.raise indexed_ev ctx;
          Sim.Engine.run e)
        descs;
      Spin.Dispatcher.faults d = 0 && linear_hits = indexed_hits)

(* The merged decision tree delivers to exactly the handlers — in exactly
   the order — that a linear interpreter would, under random
   install/uninstall churn.  The oracle never touches the dispatcher: it
   is the list of live filters in install order, each run through
   [Filter.eval].  Two events share one dispatcher: [keyed] (key
   extractor; handlers mix tree-expressible guards, keys from
   [Filter.key_conjuncts] and exact iff [Filter.keys_exact], with opaque
   closures the tree can only attach as leaf residuals) and [plain] (no
   extractor, so it compiles to a one-leaf tree).  Toggling a handler
   bumps the generation mid-churn, forcing incremental rebuilds; a
   reinstall goes to the end of the install order. *)
type churn_step = Fire of ctx_desc | Toggle of int

(* Keyed filters and contexts over a few small demux values, so keyed
   and exact handlers actually match (and their delivery order against
   residuals is exercised) instead of almost never firing. *)
let small_keyed_filter_gen =
  QCheck.Gen.(
    let eq =
      map2
        (fun f v -> Plexus.Filter.Eq (f, v))
        (oneofl Plexus.Filter.[ Ip_proto; Src_port; Dst_port ])
        (int_bound 3)
    in
    let conj a b = Plexus.Filter.And (a, b) in
    frequency
      [
        (2, eq);
        (2, map2 conj eq eq);
        (2, map2 conj eq filter_gen);
        (2, filter_gen);
      ])

let small_ctx_gen =
  QCheck.Gen.(
    map2
      (fun d (ip_proto, ports) -> { d with ip_proto; ports })
      ctx_gen
      (pair (option (int_bound 3)) (option (pair (int_bound 3) (int_bound 3)))))

let churn_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Fire d) small_ctx_gen);
        (2, map (fun i -> Toggle i) (int_bound 7));
      ])

let pp_churn = function
  | Fire d ->
      Printf.sprintf "Fire(bytes=%d,ip=%s,ports=%s,adv=%d)"
        (String.length d.bytes)
        (match d.ip_proto with None -> "-" | Some p -> string_of_int p)
        (match d.ports with
        | None -> "-"
        | Some (s, p) -> Printf.sprintf "%d,%d" s p)
        d.adv
  | Toggle i -> Printf.sprintf "Toggle %d" i

let arb_tree_churn =
  QCheck.make
    ~print:(fun ((fs, opq), steps) ->
      String.concat "\n"
        (List.map2
           (fun f o ->
             Format.asprintf "%s%a" (if o then "opaque: " else "") Plexus.Filter.pp
               f)
           fs opq)
      ^ "\n" ^ String.concat "; " (List.map pp_churn steps))
    QCheck.Gen.(
      pair
        (pair
           (list_size (return 8) small_keyed_filter_gen)
           (list_size (return 8) bool))
        (list_size (2 -- 16) churn_gen))

let tree_dispatch_agrees =
  QCheck.Test.make ~count:300 ~name:"tree dispatch = linear interpreter"
    arb_tree_churn
    (fun ((filters, opaque), steps) ->
      let filters = Array.of_list filters in
      let opaque = Array.of_list opaque in
      let e = Sim.Engine.create () in
      let cpu = Sim.Cpu.create e ~name:"c" in
      let d =
        Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs ()
      in
      let keyed_ev = Spin.Dispatcher.event d "keyed" in
      let plain_ev = Spin.Dispatcher.event d "plain" in
      Spin.Dispatcher.set_keyvfn keyed_ev ~dims:Plexus.Filter.num_key_dims
        Plexus.Filter.read_context_keys;
      let n = Array.length filters in
      (* delivery sequences, most recent first: handler index per firing *)
      let oracle_seq = ref [] and keyed_seq = ref [] and plain_seq = ref [] in
      (* the oracle's registry: live handler indices in install order *)
      let live = ref [] in
      let uninstalls = Array.make n None in
      let install i =
        let f = filters.(i) in
        let prog = Plexus.Filter.compile f in
        let un_k =
          (* an "opaque" handler hides its structure from the compiler:
             the tree must evaluate it as a residual at every leaf *)
          if opaque.(i) then
            Spin.Dispatcher.install keyed_ev
              ~guard:(Plexus.Filter.run prog)
              ~cost:Sim.Stime.zero
              (fun _ -> keyed_seq := i :: !keyed_seq)
          else
            Spin.Dispatcher.install keyed_ev
              ~guard:(Plexus.Filter.run prog)
              ~keys:(Plexus.Filter.key_conjuncts f)
              ~exact:(Plexus.Filter.keys_exact f)
              ~cost:Sim.Stime.zero
              (fun _ -> keyed_seq := i :: !keyed_seq)
        in
        let un_p =
          Spin.Dispatcher.install plain_ev
            ~guard:(Plexus.Filter.run prog)
            ~cost:Sim.Stime.zero
            (fun _ -> plain_seq := i :: !plain_seq)
        in
        live := !live @ [ i ];
        uninstalls.(i) <- Some (fun () -> un_k (); un_p ())
      in
      for i = 0 to n - 1 do install i done;
      List.iter
        (fun step ->
          match step with
          | Toggle i -> (
              (* uninstall if installed, reinstall fresh otherwise: either
                 way the generation bumps and the tree must rebuild *)
              match uninstalls.(i) with
              | Some un ->
                  un ();
                  uninstalls.(i) <- None;
                  live := List.filter (fun j -> j <> i) !live
              | None -> install i)
          | Fire desc ->
              let ctx = make_ctx desc in
              List.iter
                (fun i ->
                  if Plexus.Filter.eval filters.(i) ctx then
                    oracle_seq := i :: !oracle_seq)
                !live;
              Spin.Dispatcher.raise keyed_ev ctx;
              Spin.Dispatcher.raise plain_ev ctx;
              Sim.Engine.run e)
        steps;
      Spin.Dispatcher.faults d = 0
      && !keyed_seq = !oracle_seq
      && !plain_seq = !oracle_seq)

let suite =
  suite
  @ [
      ( "fuzz.filter",
        [
          prop compiled_eval_agree;
          prop indexed_dispatch_agrees;
          prop tree_dispatch_agrees;
        ] );
    ]
