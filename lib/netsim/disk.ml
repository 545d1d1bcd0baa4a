(* A disk with DMA: reads cost the CPU only a DMA setup and a completion
   interrupt; the transfer itself overlaps computation.  The video server
   (paper section 5.1) streams frames from here. *)

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Costs.t;
  bw_bytes_per_s : int;
  access : Sim.Stime.t; (* per-request positioning time *)
  mutable busy_until : Sim.Stime.t;
  mutable busy_ns : Sim.Stime.t; (* accumulated service time *)
  mutable reads : int;
}

let create ?(bw_bytes_per_s = 20_000_000) ?(access = Sim.Stime.us 200) engine
    ~cpu ~costs =
  {
    engine;
    cpu;
    costs;
    bw_bytes_per_s;
    access;
    busy_until = Sim.Stime.zero;
    busy_ns = Sim.Stime.zero;
    reads = 0;
  }

let reads t = t.reads
let utilization t =
  let now = Sim.Engine.now t.engine in
  if Sim.Stime.to_ns now = 0 then 0.
  else
    let frac =
      float_of_int (Sim.Stime.to_ns t.busy_ns)
      /. float_of_int (Sim.Stime.to_ns now)
    in
    min 1. frac

(* Read [len] bytes; [k] receives the data after DMA completion.  The
   content is synthetic (a repeating pattern) — the paper's video clips
   are a data source we do not have, and only sizes and timing matter to
   the experiments. *)
let read t ~len k =
  Sim.Cpu.submit t.cpu Sim.Cpu.Thread ~cost:t.costs.Costs.disk_dma_setup (fun () ->
      let now = Sim.Engine.now t.engine in
      let xfer =
        Sim.Stime.of_s_f (float_of_int len /. float_of_int t.bw_bytes_per_s)
      in
      let start = Sim.Stime.max now t.busy_until in
      let done_at = Sim.Stime.add (Sim.Stime.add start t.access) xfer in
      t.busy_ns <- Sim.Stime.add t.busy_ns (Sim.Stime.sub done_at start);
      t.busy_until <- done_at;
      t.reads <- t.reads + 1;
      ignore
        (Sim.Engine.schedule t.engine ~at:done_at (fun () ->
             (* completion interrupt *)
             Sim.Cpu.submit t.cpu Sim.Cpu.Interrupt
               ~cost:t.costs.Costs.disk_intr (fun () ->
                 k (String.make len 'v')))))
