(* Topology helpers for the experiments: the paper's testbeds are pairs of
   workstations on a private segment (Ethernet), through a ForeRunner
   switch (ATM — folded into the device's propagation delay) or back to
   back (T3), plus a three-host line for the forwarding experiment. *)

type endpoint = { host : Host.t; dev : Dev.t }

let pair ?costs engine params ~a:(aname, aip) ~b:(bname, bip) =
  let ha = Host.create ?costs engine ~name:aname ~ip:aip in
  let hb = Host.create ?costs engine ~name:bname ~ip:bip in
  let da = Host.add_device ha params in
  let db = Host.add_device hb params in
  Dev.connect da db;
  ({ host = ha; dev = da }, { host = hb; dev = db })

(* Attach a fresh fault plan to one direction of an endpoint's link.
   The plan draws from its own split of the engine stream (or the given
   seed), so enabling faults on one link never perturbs the draws of
   another, and its injection counters land in the host registry under
   [faults.<dev>.*]. *)
let install_faults ?seed { host; dev } =
  let rng =
    match seed with
    | Some s -> Sim.Rng.create s
    | None -> Sim.Rng.split (Sim.Engine.rng (Host.engine host))
  in
  let plan = Faults.create ~name:("faults." ^ Dev.name dev) ~rng () in
  Dev.set_faults dev plan;
  Faults.register plan
    (Spin.Kernel.registry (Host.kernel host))
    ~prefix:("faults." ^ Dev.name dev);
  plan

(* client -- middle -- server: the middle host has two devices (one per
   segment), as the load-balancing forwarder of section 5.2 requires. *)
let line3 ?costs engine params ~client:(cn, cip) ~middle:(mn, mip)
    ~server:(sn, sip) =
  let hc = Host.create ?costs engine ~name:cn ~ip:cip in
  let hm = Host.create ?costs engine ~name:mn ~ip:mip in
  let hs = Host.create ?costs engine ~name:sn ~ip:sip in
  let dc = Host.add_device hc params in
  let dm1 = Host.add_device hm params in
  let dm2 = Host.add_device hm params in
  let ds = Host.add_device hs params in
  Dev.connect dc dm1;
  Dev.connect dm2 ds;
  ( { host = hc; dev = dc },
    ({ host = hm; dev = dm1 }, { host = hm; dev = dm2 }),
    { host = hs; dev = ds } )
