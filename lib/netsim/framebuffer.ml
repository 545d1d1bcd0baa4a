(* The SFB framebuffer: memory-mapped device memory whose writes are about
   10x slower than RAM (paper section 5.1: the video client is limited by
   framebuffer write bandwidth, not by the OS). *)

type t = {
  cpu : Sim.Cpu.t;
  ns_per_byte : float;
  mutable bytes_written : int;
  mutable frames : int;
}

let create ~cpu ~costs =
  {
    cpu;
    ns_per_byte = costs.Costs.fb_ns_per_byte;
    bytes_written = 0;
    frames = 0;
  }

let write t ?(prio = Sim.Cpu.Thread) ~len k =
  let cost = Costs.per_byte t.ns_per_byte len in
  Sim.Cpu.submit t.cpu prio ~cost (fun () ->
      t.bytes_written <- t.bytes_written + len;
      t.frames <- t.frames + 1;
      k ())

let bytes_written t = t.bytes_written
let frames t = t.frames
