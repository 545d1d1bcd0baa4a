(* The video client (paper section 5.1): awaits incoming video frames,
   checksums and decompresses each (the checksum pass is charged by the
   UDP layer; the decompression pass here), and writes the result to the
   framebuffer — whose slow device memory dominates, which is exactly the
   paper's observation about where customized protocols do *not* help. *)

type t = {
  host : Netsim.Host.t;
  fb : Netsim.Framebuffer.t;
  costs : Netsim.Costs.t;
  deadline : Sim.Stime.t option; (* inter-frame bound (1.5x the period) *)
  mutable last_frame_at : Sim.Stime.t option;
  gaps : Sim.Stats.Mean.t;  (* inter-arrival times *)
  mutable deadline_misses : int;
  mutable frames_received : int;
  mutable bytes_received : int;
  mutable frames_displayed : int;
}

let make ?fps host =
  let costs = Netsim.Host.costs host in
  {
    host;
    fb = Netsim.Framebuffer.create ~cpu:(Netsim.Host.cpu host) ~costs;
    costs;
    deadline =
      (match fps with
      | Some fps -> Some (Sim.Stime.of_s_f (1.5 /. float_of_int fps))
      | None -> None);
    last_frame_at = None;
    gaps = Sim.Stats.Mean.create ();
    deadline_misses = 0;
    frames_received = 0;
    bytes_received = 0;
    frames_displayed = 0;
  }

(* Shared frame handling: decompress (one pass over the data), then write
   the expanded image to the framebuffer. *)
let handle_frame t len =
  t.frames_received <- t.frames_received + 1;
  t.bytes_received <- t.bytes_received + len;
  let now = Sim.Engine.now (Netsim.Host.engine t.host) in
  (match t.last_frame_at with
  | Some prev ->
      let gap = Sim.Stime.sub now prev in
      Sim.Stats.Mean.add t.gaps gap;
      (match t.deadline with
      | Some d when Sim.Stime.compare gap d > 0 ->
          t.deadline_misses <- t.deadline_misses + 1
      | _ -> ())
  | None -> ());
  t.last_frame_at <- Some now;
  Sim.Cpu.submit (Netsim.Host.cpu t.host) Sim.Cpu.Thread
    ~cost:(Codec.decompress_cost t.costs ~len) (fun () ->
      Netsim.Framebuffer.write t.fb ~len:(Codec.decompressed_len ~len)
        (fun () -> t.frames_displayed <- t.frames_displayed + 1))

(* Plexus client: an extension handler on a UDP endpoint. *)
let on_plexus ?fps stack ~port =
  let t = make ?fps (Plexus.Stack.host stack) in
  let udp = Plexus.Stack.udp stack in
  (match Plexus.Udp_mgr.bind udp ~owner:"video-client" ~port with
  | Error (`Port_in_use _) -> invalid_arg "Video_client.on_plexus: port in use"
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp ep (fun ctx ->
            handle_frame t (Plexus.Pctx.payload_len ctx))
      in
      ());
  t

(* DIGITAL UNIX client: a user process on a socket (the socket layer has
   already charged the copy to user space). *)
let on_du ?fps du ~port =
  let t = make ?fps (Osmodel.Du_stack.host du) in
  (match Osmodel.Du_stack.udp_bind du ~port with
  | Error (`Port_in_use _) -> invalid_arg "Video_client.on_du: port in use"
  | Ok sock ->
      Osmodel.Du_stack.udp_set_recv sock (fun ~src:_ data ->
          handle_frame t (String.length data)));
  t

let deadline_misses t = t.deadline_misses
let jitter t = Sim.Stats.Mean.us t.gaps
let frames_received t = t.frames_received
let frames_displayed t = t.frames_displayed
let bytes_received t = t.bytes_received
let framebuffer t = t.fb
