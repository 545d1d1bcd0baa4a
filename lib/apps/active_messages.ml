(* Active messages over Ethernet (paper section 3.3, Figures 2 and 3).

   This is a *bona fide* dynamically linked extension: it declares
   imports on the Ether and Mbuf interfaces, is compiled/signed, and at
   link time installs a guarded EPHEMERAL handler on the Ethernet
   PacketRecv event.  The guard discriminates on the EtherType field
   (via a safe VIEW of the header); the handler runs at interrupt level
   under an optional time budget and "does little more than reference
   memory and reply with an acknowledgement".

   Message format on the wire (after the Ethernet header):
     2 bytes handler index | payload bytes *)

type ctx = {
  mutable send : (dst:Proto.Ether.Mac.t -> handler:int -> string -> unit) option;
  received : int ref;
  mutable uninstall : (unit -> unit) option;
}

(* What a linked AM extension gives its host application: [send] becomes
   available once the extension is linked, and disappears at unlink. *)
let send ctx ~dst ~handler payload =
  match ctx.send with
  | Some f -> f ~dst ~handler payload
  | None -> invalid_arg "Active_messages.send: extension not linked"

let received ctx = !(ctx.received)

let header_len = 2

(* Build the extension.  [handlers] maps a handler index to the ephemeral
   program run (at interrupt level) for each matching message; it only
   has ephemeral constructors available, so it cannot block — the
   EPHEMERAL restriction enforced by type. *)
let extension ?(etype = Proto.Ether.etype_active_message) ?budget ~name
    ~(handlers : ctx -> int -> src:Proto.Ether.Mac.t -> string -> Spin.Ephemeral.t)
    () =
  let ctx = { send = None; received = ref 0; uninstall = None } in
  let imports =
    [
      (Plexus.Api.ether_iface, Plexus.Api.sym_install_handler);
      (Plexus.Api.ether_iface, Plexus.Api.sym_send);
      (Plexus.Api.mbuf_iface, Plexus.Api.sym_alloc);
    ]
  in
  let init (linkage : Spin.Extension.linkage) =
    let install =
      linkage.get Plexus.Api.ether_install_w ~iface:Plexus.Api.ether_iface
        ~sym:Plexus.Api.sym_install_handler
    in
    let ether_send =
      linkage.get Plexus.Api.ether_send_w ~iface:Plexus.Api.ether_iface
        ~sym:Plexus.Api.sym_send
    in
    let alloc =
      linkage.get Plexus.Api.mbuf_alloc_w ~iface:Plexus.Api.mbuf_iface
        ~sym:Plexus.Api.sym_alloc
    in
    (* The guard/handler pair of Figure 2: the guard VIEWs the Ethernet
       header and matches the active-message protocol number; the handler
       is an ephemeral program. *)
    let handler (pctx : Plexus.Pctx.t) : Spin.Ephemeral.t =
      let v = Plexus.Pctx.view pctx in
      match Proto.Ether.parse v with
      | None -> Spin.Ephemeral.nothing
      | Some eh ->
          let body = View.shift v Proto.Ether.header_len in
          if View.length body < header_len then Spin.Ephemeral.nothing
          else begin
            let idx = View.get_u16 body 0 in
            let payload =
              View.get_string body ~off:header_len
                ~len:(View.length body - header_len)
            in
            Spin.Ephemeral.count ctx.received
            :: handlers ctx idx ~src:eh.Proto.Ether.src payload
          end
    in
    (match install ~owner:name ~etype ~budget handler with
    | Ok uninstall ->
        ctx.uninstall <- Some uninstall;
        linkage.on_unlink uninstall
    | Error msg -> failwith msg);
    ctx.send <-
      Some
        (fun ~dst ~handler payload ->
          let pkt = alloc (header_len + String.length payload) in
          let v = Mbuf.view pkt in
          View.set_u16 v 0 handler;
          View.set_string v ~off:header_len payload;
          ether_send ~dst ~etype pkt);
    linkage.on_unlink (fun () -> ctx.send <- None)
  in
  (ctx, Spin.Extension.Compiler.compile ~name ~imports init)

(* A ready-made echo responder: handler 0 replies with handler 1 carrying
   the same payload — the ping-pong used by the latency measurements. *)
let echo_extension ?etype ?budget ~name ~reply_cost () =
  let handlers ctx idx ~src payload =
    if idx = 0 then
      [
        Spin.Ephemeral.work ~label:"am-reply" ~cost:reply_cost (fun () ->
            send ctx ~dst:src ~handler:1 payload);
      ]
    else Spin.Ephemeral.nothing
  in
  extension ?etype ?budget ~name ~handlers ()
