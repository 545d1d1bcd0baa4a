(* The network video server (paper section 5.1): reads video frame by
   frame off the disk and multicasts each frame as a UDP datagram to a
   set of client streams at 30 frames per second.

   The server logic is environment-agnostic so the experiments can run it
   both as a Plexus extension (disk data goes straight to the network —
   no user/kernel copies) and as a DIGITAL UNIX user process (read(2)
   copies the frame up, sendto(2) copies it back down). *)

type env = {
  engine : Sim.Engine.t;
  read_frame : len:int -> (string -> unit) -> unit;
  send : dst:Proto.Ipaddr.t * int -> string -> unit;
}

type t = {
  env : env;
  fps : int;
  frame_len : int;
  mutable streams : (Proto.Ipaddr.t * int) list;
  mutable frames_sent : int;
}

let create env ~fps ~frame_len =
  { env; fps; frame_len; streams = []; frames_sent = 0 }

let add_stream t dst = t.streams <- t.streams @ [ dst ]
let set_streams t streams = t.streams <- streams
let frames_sent t = t.frames_sent
let period t = Sim.Stime.of_s_f (1.0 /. float_of_int t.fps)

(* Each stream has its own frame clock, staggered so that 30 streams do
   not burst simultaneously (the paper's server interleaves streams). *)
let start ?(until = Sim.Stime.s 10) t =
  let rec tick dst idx () =
    if Sim.Stime.compare (Sim.Engine.now t.env.engine) until < 0 then begin
      t.env.read_frame ~len:t.frame_len (fun frame ->
          t.frames_sent <- t.frames_sent + 1;
          t.env.send ~dst frame);
      ignore (Sim.Engine.schedule_in t.env.engine ~delay:(period t) (tick dst idx))
    end
  in
  List.iteri
    (fun idx dst ->
      let offset =
        Sim.Stime.scale (period t)
          (float_of_int idx /. float_of_int (max 1 (List.length t.streams)))
      in
      ignore (Sim.Engine.schedule_in t.env.engine ~delay:offset (tick dst idx)))
    t.streams
