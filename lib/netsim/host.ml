(* A simulated workstation: one CPU, a SPIN kernel instance, an IP
   identity and a set of network devices. *)

type t = {
  name : string;
  engine : Sim.Engine.t;
  kernel : Spin.Kernel.t;
  costs : Costs.t;
  ip : Proto.Ipaddr.t;
  mutable devs : Dev.t list;
  mutable next_mac : int;
}

let create ?(costs = Costs.default) engine ~name ~ip =
  let kernel = Spin.Kernel.create ~costs:costs.Costs.dispatch engine ~name in
  { name; engine; kernel; costs; ip; devs = []; next_mac = 1 }

let name t = t.name
let engine t = t.engine
let kernel t = t.kernel
let cpu t = Spin.Kernel.cpu t.kernel
let costs t = t.costs
let ip t = t.ip
let devices t = t.devs

let fresh_mac t =
  let m = (Proto.Ipaddr.to_int t.ip lsl 8) lor t.next_mac in
  t.next_mac <- t.next_mac + 1;
  Proto.Ether.Mac.of_int m

let add_device ?mac t params =
  let mac = match mac with Some m -> m | None -> fresh_mac t in
  let dev =
    Dev.create t.engine ~cpu:(cpu t)
      ~name:(Printf.sprintf "%s.%s%d" t.name params.Costs.label (List.length t.devs))
      ~mac params
  in
  t.devs <- t.devs @ [ dev ];
  Dev.register dev (Spin.Kernel.registry t.kernel);
  Dev.set_trace dev (Spin.Kernel.trace t.kernel);
  Dev.set_flight dev (Spin.Kernel.flight t.kernel);
  dev

let utilization t = Sim.Cpu.utilization (cpu t)
let reset_utilization t = Sim.Cpu.reset_window (cpu t)
