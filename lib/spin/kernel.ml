(* A SPIN kernel instance: one per simulated host.  Ties together the
   engine, the host CPU, the event dispatcher and the interface/domain
   namespace, and fronts the dynamic linker. *)

type t = {
  name : string;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  dispatcher : Dispatcher.t;
  registry : Observe.Registry.t;
  trace : Observe.Trace.t;
  flight : Observe.Flight.t;
  interfaces : (string, Interface.t) Hashtbl.t;
  root_domain : Domain.t;
      (* every interface in the kernel; "few extensions have access to
         this domain" *)
}

let create ?(costs = Dispatcher.default_costs) ?(observe = true) ?flight_seed
    engine ~name =
  let cpu = Sim.Cpu.create engine ~name:(name ^ ".cpu") in
  let registry = Observe.Registry.create ~name () in
  let trace = Observe.Trace.create () in
  (* Disabled (rate 0) until someone turns sampling on; the default seed
     is a deterministic function of the kernel name so two hosts sample
     independent packet sets out of the box. *)
  let flight =
    Observe.Flight.create ~seed:(match flight_seed with
      | Some s -> s
      | None -> Hashtbl.hash name) ()
  in
  let dispatcher =
    Dispatcher.create
      ?registry:(if observe then Some registry else None)
      ~trace ~cpu ~costs ()
  in
  Dispatcher.set_flight dispatcher (Some flight);
  {
    name;
    engine;
    cpu;
    dispatcher;
    registry;
    trace;
    flight;
    interfaces = Hashtbl.create 16;
    root_domain = Domain.create (name ^ ".root");
  }

let name t = t.name
let engine t = t.engine
let cpu t = t.cpu
let dispatcher t = t.dispatcher
let registry t = t.registry
let trace t = t.trace
let flight t = t.flight
let root_domain t = t.root_domain

(* Time-series telemetry: snapshot the registry every [period] of
   virtual time into a delta-encoded ring.  The tick re-arms itself, so
   the engine never quiesces while telemetry runs — drive the engine
   with [~until] (or call the returned stop function first).  One-shot
   self-rearming timers (not a standing queue of ticks) follow the
   ip_mgr fragment-expiry pattern: cancellation drops the closure
   eagerly. *)
let telemetry_every ?capacity t ~period =
  let tel = Observe.Telemetry.create ?capacity t.registry in
  let stopped = ref false in
  let handle = ref None in
  let rec arm () =
    handle :=
      Some
        (Sim.Engine.schedule_in t.engine ~delay:period (fun () ->
             ignore
               (Observe.Telemetry.record tel
                  ~at_ns:(Sim.Stime.to_ns (Sim.Engine.now t.engine)));
             if not !stopped then arm ()))
  in
  arm ();
  let stop () =
    if not !stopped then begin
      stopped := true;
      (match !handle with Some h -> Sim.Engine.cancel t.engine h | None -> ());
      handle := None
    end
  in
  (tel, stop)

let introspect t =
  Fmt.str "kernel %s: %d interface(s), %d event(s)@.%a" t.name
    (Hashtbl.length t.interfaces)
    (List.length (Dispatcher.dump t.dispatcher))
    Dispatcher.pp_dump t.dispatcher

let declare_interface t iname =
  match Hashtbl.find_opt t.interfaces iname with
  | Some i -> i
  | None ->
      let i = Interface.create iname in
      Hashtbl.replace t.interfaces iname i;
      Domain.add t.root_domain i;
      i

let find_interface t iname = Hashtbl.find_opt t.interfaces iname

(* A restricted domain exposing only the named interfaces — how protocol
   managers hand applications access to exactly the services they should
   see. *)
let restricted_domain t dname inames =
  let d = Domain.create (t.name ^ "." ^ dname) in
  List.iter
    (fun iname ->
      match find_interface t iname with
      | Some i -> Domain.add d i
      | None -> invalid_arg ("Kernel.restricted_domain: no interface " ^ iname))
    inames;
  d

let link ?policy t ~domain ext =
  ignore t;
  Linker.link ?policy ~domain ext

let replace ?policy t ~domain old next =
  Linker.replace ?policy ~disp:t.dispatcher ~domain old next

let now t = Sim.Engine.now t.engine
