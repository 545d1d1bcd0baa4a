(* A small HTTP/1.0 server running as a Plexus extension over the TCP
   manager — the paper's closing demonstration ("a demonstration of the
   protocol stack as it services HTTP requests").  [create] installs it
   directly on a stack; [extension] packages the same server as a
   *bona fide* dynamically linked extension that imports the Tcp
   interface, is compiled and signed, and installs its listener at link
   time, so unlinking it tears the listener down. *)

type t = {
  routes : (string, string) Hashtbl.t;
  mutable requests : int;
  mutable not_found : int;
}

let default_routes () =
  let r = Hashtbl.create 8 in
  Hashtbl.replace r "/"
    "<html><body>Plexus: application-specific networking in the kernel.</body></html>\n";
  Hashtbl.replace r "/index.html"
    "<html><body>Plexus: application-specific networking in the kernel.</body></html>\n";
  Hashtbl.replace r "/paper" "Fiuczynski & Bershad, USENIX 1996.\n";
  r

let make routes =
  {
    routes = (match routes with Some r -> r | None -> default_routes ());
    requests = 0;
    not_found = 0;
  }

(* A response as the chunks of one send: the head, then the body,
   queued as it is, never copied. *)
let chunks r = [ Proto.Http.response_head r; r.Proto.Http.body ]

let bad_request =
  chunks
    { Proto.Http.status = 400; reason = "Bad Request"; headers = []; body = "" }

let respond t (req : Proto.Http.request) =
  t.requests <- t.requests + 1;
  chunks
    (match Hashtbl.find_opt t.routes req.Proto.Http.path with
    | Some body -> Proto.Http.ok ~headers:[ ("content-type", "text/html") ] body
    | None ->
        t.not_found <- t.not_found + 1;
        Proto.Http.not_found)

(* One connection's request reader: answer once the head is in, then
   close. *)
let reader t ~send ~close =
  Proto.Http.on_request (fun req ->
      send (match req with Some req -> respond t req | None -> bad_request);
      close ())

let create ?(port = 80) ?routes stack =
  let t = make routes in
  let on_accept conn =
    Plexus.Tcp_mgr.on_receive conn
      (reader t ~send:(Plexus.Tcp_mgr.sendv conn) ~close:(fun () ->
           Plexus.Tcp_mgr.close conn))
  in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp stack) ~owner:"http" ~port
       ~on_accept ()
   with
  | Ok () -> ()
  | Error (`Port_in_use _) -> invalid_arg "Http_server.create: port in use");
  t

let extension ?(port = 80) ?routes ~name () =
  let t = make routes in
  let on_accept (ops : Plexus.Api.tcp_conn_ops) =
    ops.Plexus.Api.tc_set_receive
      (reader t ~send:ops.Plexus.Api.tc_send ~close:ops.Plexus.Api.tc_close)
  in
  let init (linkage : Spin.Extension.linkage) =
    let listen =
      linkage.get Plexus.Api.tcp_listen_w ~iface:Plexus.Api.tcp_iface
        ~sym:Plexus.Api.sym_listen
    in
    match listen ~owner:name ~port ~on_accept with
    | Ok unlisten -> linkage.on_unlink unlisten
    | Error msg -> failwith msg
  in
  let imports = [ (Plexus.Api.tcp_iface, Plexus.Api.sym_listen) ] in
  (t, Spin.Extension.Compiler.compile ~name ~imports init)

let requests t = t.requests
let not_found_count t = t.not_found
let add_route t path body = Hashtbl.replace t.routes path body
