(* Extension lifecycle: static verifier admission, per-generation
   resource ledgers, crash vs. termination accounting, runtime
   quarantine, and the zero-drop hot-swap protocol (directed + qcheck
   churn, single dispatcher and the 2-domain parallel datapath). *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us
let ns = Sim.Stime.ns

let mk_dispatcher () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  (e, cpu, Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs ())

(* ---- Verifier: budget inference and admission ------------------------- *)

let verifier_infer () =
  let b =
    Spin.Verifier.infer
      [
        Spin.Verifier.Enqueue;
        Spin.Verifier.Count;
        Spin.Verifier.Work { insns = 50 };
        Spin.Verifier.Alloc { mbufs = 2 };
        Spin.Verifier.Loop
          {
            iters = 3;
            body = [ Spin.Verifier.Count; Spin.Verifier.Alloc { mbufs = 1 } ];
          };
      ]
  in
  (* 300 + 100 + 50 + 2*200 + 3*(100 + 200) *)
  Alcotest.(check int) "insns" 1750 b.Spin.Verifier.b_insns;
  Alcotest.(check int) "allocs" 5 b.Spin.Verifier.b_allocs;
  Alcotest.(check int) "cost follows insns" 1750 b.Spin.Verifier.b_cost_ns;
  Alcotest.(check int) "cost as time" 1750
    (Sim.Stime.to_ns (Spin.Verifier.cost b));
  let z = Spin.Verifier.infer [] in
  Alcotest.(check int) "empty program is free" 0 z.Spin.Verifier.b_insns;
  let neg = Spin.Verifier.infer [ Spin.Verifier.Work { insns = -5 } ] in
  Alcotest.(check int) "negative insns clamp to zero" 0
    neg.Spin.Verifier.b_insns

let verifier_admit () =
  let b = Spin.Verifier.infer [ Spin.Verifier.Work { insns = 200 } ] in
  (match Spin.Verifier.admit (Spin.Verifier.policy ~max_insns:100 ()) (Some b) with
  | Error v ->
      Alcotest.(check string) "resource" "insns" v.Spin.Verifier.v_resource;
      Alcotest.(check int) "declared" 200 v.Spin.Verifier.v_declared;
      Alcotest.(check int) "allowed" 100 v.Spin.Verifier.v_allowed
  | Ok () -> Alcotest.fail "over-insns budget admitted");
  (match
     Spin.Verifier.admit (Spin.Verifier.policy ~max_cost_ns:100 ()) (Some b)
   with
  | Error v ->
      Alcotest.(check string) "cost gate" "cost_ns" v.Spin.Verifier.v_resource
  | Ok () -> Alcotest.fail "over-cost budget admitted");
  let alloc = Spin.Verifier.infer [ Spin.Verifier.Alloc { mbufs = 4 } ] in
  (match
     Spin.Verifier.admit (Spin.Verifier.policy ~max_allocs:2 ()) (Some alloc)
   with
  | Error v ->
      Alcotest.(check string) "alloc gate" "allocs" v.Spin.Verifier.v_resource
  | Ok () -> Alcotest.fail "over-alloc budget admitted");
  Alcotest.(check bool) "within limits admitted" true
    (Spin.Verifier.admit (Spin.Verifier.policy ~max_insns:200 ()) (Some b)
    = Ok ());
  Alcotest.(check bool) "uncertified admitted by default" true
    (Spin.Verifier.admit (Spin.Verifier.policy ()) None = Ok ());
  match
    Spin.Verifier.admit (Spin.Verifier.policy ~require_cert:true ()) None
  with
  | Error v ->
      Alcotest.(check string) "cert required" "certificate"
        v.Spin.Verifier.v_resource
  | Ok () -> Alcotest.fail "uncertified admitted under require_cert"

(* ---- Install-time enforcement ----------------------------------------- *)

let install_rejected_by_policy () =
  let _, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  Spin.Dispatcher.set_policy ev (Some (Spin.Verifier.policy ~max_insns:500 ()));
  (* under budget: admitted *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev
      ~ops:[ Spin.Verifier.Work { insns = 400 } ]
      ~cost:(us 1) ignore
  in
  Alcotest.(check int) "admitted handler installed" 1
    (Spin.Dispatcher.handler_count ev);
  (* over budget: rejected with the typed violation, nothing installed *)
  (try
     let (_ : unit -> unit) =
       Spin.Dispatcher.install ev ~label:"hog"
         ~ops:
           [
             Spin.Verifier.Loop
               { iters = 10; body = [ Spin.Verifier.Work { insns = 100 } ] };
           ]
         ~cost:(us 1) ignore
     in
     Alcotest.fail "over-budget install admitted"
   with
  | Spin.Dispatcher.Install_rejected { event; label; violation } ->
      Alcotest.(check string) "event name" "ev" event;
      Alcotest.(check string) "label" "hog" label;
      Alcotest.(check string) "resource" "insns"
        violation.Spin.Verifier.v_resource;
      Alcotest.(check int) "declared" 1000 violation.Spin.Verifier.v_declared);
  Alcotest.(check int) "rejected handler not installed" 1
    (Spin.Dispatcher.handler_count ev);
  (* uncertified passes unless the policy demands a certificate *)
  let u = Spin.Dispatcher.install ev ~cost:(us 1) ignore in
  u ();
  Spin.Dispatcher.set_policy ev
    (Some (Spin.Verifier.policy ~require_cert:true ()));
  (try
     let (_ : unit -> unit) = Spin.Dispatcher.install ev ~cost:(us 1) ignore in
     Alcotest.fail "uncertified install admitted under require_cert"
   with Spin.Dispatcher.Install_rejected { violation; _ } ->
     Alcotest.(check string) "certificate demanded" "certificate"
       violation.Spin.Verifier.v_resource);
  (* clearing the policy reopens the event *)
  Spin.Dispatcher.set_policy ev None;
  let (_ : unit -> unit) = Spin.Dispatcher.install ev ~cost:(us 1) ignore in
  Alcotest.(check int) "open again" 2 (Spin.Dispatcher.handler_count ev)

let link_rejected_by_policy () =
  let _, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  let dom = Spin.Domain.of_interfaces "d" [] in
  let ran = ref false in
  let ext () =
    Spin.Extension.Compiler.compile ~name:"hog"
      ~ops:[ Spin.Verifier.Work { insns = 1000 } ]
      ~imports:[]
      (fun lk ->
        ran := true;
        lk.Spin.Extension.on_unlink
          (Spin.Dispatcher.install ev ~cost:(us 1) ignore))
  in
  Alcotest.(check bool) "certificate carries the budget" true
    (Spin.Extension.budget (ext ())
    = Some (Spin.Verifier.infer [ Spin.Verifier.Work { insns = 1000 } ]));
  (match
     Spin.Linker.link
       ~policy:(Spin.Verifier.policy ~max_insns:500 ())
       ~domain:dom (ext ())
   with
  | Error (Spin.Extension.Over_budget v) ->
      Alcotest.(check int) "declared" 1000 v.Spin.Verifier.v_declared;
      Alcotest.(check bool) "rejected before init ran" false !ran
  | Ok _ | Error _ -> Alcotest.fail "over-budget link admitted");
  (* the same certificate links fine under a looser policy *)
  match
    Spin.Linker.link
      ~policy:(Spin.Verifier.policy ~max_insns:2000 ())
      ~domain:dom (ext ())
  with
  | Ok _ -> Alcotest.(check bool) "init ran" true !ran
  | Error f -> Alcotest.failf "loose link failed: %a" Spin.Extension.pp_failure f

(* ---- Crash vs. termination accounting --------------------------------- *)

let eph_crash_counted_distinctly () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"bad" (fun _ ->
        failwith "boom")
  in
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  Alcotest.(check int) "crash counted as eph failure" 1
    (Spin.Dispatcher.eph_failures d);
  Alcotest.(check int) "crash counted as fault" 1 (Spin.Dispatcher.faults d);
  Alcotest.(check int) "crash is not a termination" 0
    (Spin.Dispatcher.terminations d);
  Alcotest.(check int) "crashed handler uninstalled" 0
    (Spin.Dispatcher.handler_count ev);
  (* a healthy handler that overruns its budget terminates — the other
     counter, and it stays installed *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"slow" ~budget:(ns 100)
      (fun _ -> [ Spin.Ephemeral.work ~label:"w" ~cost:(us 1) ignore ])
  in
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  Alcotest.(check int) "overrun is a termination" 1
    (Spin.Dispatcher.terminations d);
  Alcotest.(check int) "overrun is not a failure" 1
    (Spin.Dispatcher.eph_failures d);
  Alcotest.(check int) "terminated handler stays installed" 1
    (Spin.Dispatcher.handler_count ev)

let async_exceptions_propagate () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"oom" (fun _ ->
        raise Stack_overflow)
  in
  Spin.Dispatcher.raise ev 0;
  Alcotest.check_raises "plan-time Stack_overflow propagates" Stack_overflow
    (fun () -> Sim.Engine.run e);
  Alcotest.(check int) "not contained as a failure" 0
    (Spin.Dispatcher.eph_failures d);
  (* same for a guard *)
  let e2, _, d2 = mk_dispatcher () in
  let ev2 = Spin.Dispatcher.event d2 "ev" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev2
      ~guard:(fun _ -> raise Out_of_memory)
      ~cost:(us 1) ignore
  in
  Spin.Dispatcher.raise ev2 0;
  Alcotest.check_raises "guard Out_of_memory propagates" Out_of_memory
    (fun () -> Sim.Engine.run e2);
  Alcotest.(check int) "not contained as a fault" 0 (Spin.Dispatcher.faults d2)

let certified_budget_is_runtime_budget () =
  (* [ops] without [budget]: the certificate's cost bound becomes the
     ephemeral enforcement ceiling. *)
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  let committed = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"cert"
      ~ops:[ Spin.Verifier.Work { insns = 500 } ]
      (fun _ ->
        [
          Spin.Ephemeral.work ~label:"a" ~cost:(ns 300) (fun () ->
              incr committed);
          Spin.Ephemeral.work ~label:"b" ~cost:(ns 300) (fun () ->
              incr committed);
        ])
  in
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  Alcotest.(check int) "only the affordable prefix committed" 1 !committed;
  Alcotest.(check int) "overrun terminated at the certified bound" 1
    (Spin.Dispatcher.terminations d)

(* ---- Zero-budget ephemeral (regression) ------------------------------- *)

let ephemeral_zero_budget () =
  let n = ref 0 in
  let prog =
    [ Spin.Ephemeral.work ~label:"w" ~cost:(ns 1) (fun () -> incr n) ]
  in
  let r = Spin.Ephemeral.execute ~budget:Sim.Stime.zero prog in
  Alcotest.(check bool) "zero budget terminates" true
    r.Spin.Ephemeral.terminated;
  Alcotest.(check int) "nothing committed" 0 r.Spin.Ephemeral.committed;
  Alcotest.(check int) "nothing charged" 0
    (Sim.Stime.to_ns r.Spin.Ephemeral.consumed);
  Alcotest.(check int) "no action ran" 0 !n;
  (* the empty program fits any budget, including zero *)
  let r0 = Spin.Ephemeral.execute ~budget:Sim.Stime.zero [] in
  Alcotest.(check bool) "empty program is not a termination" false
    r0.Spin.Ephemeral.terminated

(* ---- Ledger generations ----------------------------------------------- *)

let rcount reg name =
  match List.assoc_opt name (Observe.Registry.snapshot reg) with
  | Some (Observe.Registry.Count n) -> n
  | _ -> -1

let ledger_generations_split () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let reg = Observe.Registry.create ~name:"t" () in
  let d =
    Spin.Dispatcher.create ~registry:reg ~cpu
      ~costs:Spin.Dispatcher.default_costs ()
  in
  let ev = Spin.Dispatcher.event d "ev" in
  let u1 = Spin.Dispatcher.install ev ~label:"x" ~cost:(us 1) ignore in
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  u1 ();
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"x" ~cost:(us 1) ignore
  in
  Spin.Dispatcher.raise ev 0;
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  (* the retired generation's ledger is frozen, the replacement starts
     from zero under its own generation-qualified name *)
  Alcotest.(check int) "gen 0 ledger frozen" 1 (rcount reg "spin.ev.x.runs");
  Alcotest.(check int) "gen 1 ledger separate" 2
    (rcount reg "spin.ev.x#1.runs");
  match Spin.Dispatcher.dump d with
  | [ ei ] -> (
      match ei.Spin.Dispatcher.ei_handlers with
      | [ hi ] ->
          Alcotest.(check int) "dump surfaces the generation" 1
            hi.Spin.Dispatcher.hi_gen;
          Alcotest.(check int) "and its own run count" 2
            hi.Spin.Dispatcher.hi_runs
      | hs -> Alcotest.failf "expected 1 handler, got %d" (List.length hs))
  | eis -> Alcotest.failf "expected 1 event, got %d" (List.length eis)

(* ---- Quarantine ------------------------------------------------------- *)

let quarantine_evicts_hog () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  Spin.Dispatcher.set_quarantine ev
    (Some (Spin.Verifier.quarantine ~window_ns:1_000_000 ~max_cpu_ns:10_000 ()));
  let cheap = ref 0 and hog = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"cheap" ~cost:(ns 100) (fun _ ->
        incr cheap)
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"hog" ~cost:(us 6) (fun _ -> incr hog)
  in
  for i = 1 to 5 do
    Spin.Dispatcher.raise ev i
  done;
  Sim.Engine.run e;
  (* 6 us/run against 10 us per 1 ms: the hog crosses on its second run
     and is evicted; the cheap handler rides out all five deliveries *)
  Alcotest.(check int) "hog evicted" 1 (Spin.Dispatcher.quarantines d);
  Alcotest.(check int) "after its second run" 2 !hog;
  Alcotest.(check int) "cheap handler untouched" 5 !cheap;
  Alcotest.(check int) "hog gone from the event" 1
    (Spin.Dispatcher.handler_count ev)

let quarantine_window_forgives_idle () =
  (* The same hog under a window shorter than its idle gaps: every
     check starts a fresh window first, so no single run can be blamed
     for more than it did inside one window — never evicted. *)
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  Spin.Dispatcher.set_quarantine ev
    (Some (Spin.Verifier.quarantine ~window_ns:1_000 ~max_cpu_ns:10_000 ()));
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"hog" ~cost:(us 6) ignore
  in
  for i = 0 to 4 do
    ignore
      (Sim.Engine.schedule_in e
         ~delay:(us (10 * (i + 1)))
         (fun () -> Spin.Dispatcher.raise ev i))
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "idle-spread hog forgiven" 0
    (Spin.Dispatcher.quarantines d);
  Alcotest.(check int) "still installed" 1 (Spin.Dispatcher.handler_count ev)

let quarantine_on_terminations () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "ev" in
  Spin.Dispatcher.set_quarantine ev
    (Some
       (Spin.Verifier.quarantine ~window_ns:1_000_000_000 ~max_terminations:2
          ()));
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"thrash" ~budget:(ns 10)
      (fun _ -> [ Spin.Ephemeral.work ~label:"w" ~cost:(us 1) ignore ])
  in
  for i = 1 to 5 do
    Spin.Dispatcher.raise ev i
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "evicted after the third termination" 1
    (Spin.Dispatcher.quarantines d);
  Alcotest.(check int) "terminations stop accruing" 3
    (Spin.Dispatcher.terminations d)

(* ---- Hot-swap: directed ----------------------------------------------- *)

let mon_ext ~ev ~log gen =
  Spin.Extension.Compiler.compile
    ~name:(Printf.sprintf "mon.g%d" gen)
    ~imports:[]
    (fun lk ->
      lk.Spin.Extension.on_unlink
        (Spin.Dispatcher.install ev ~label:"mon" ~cost:(us 1) (fun v ->
             log := (gen, v) :: !log)))

let swap_mid_delivery_zero_drop () =
  let e, _, d = mk_dispatcher () in
  let dom = Spin.Domain.of_interfaces "d" [] in
  let ev = Spin.Dispatcher.event d "ev" in
  let log = ref [] in
  let swap_req = ref false and inflight_at_flip = ref (-1) in
  let link = ref None in
  (* control handler: installed first, so its queued invocation runs
     before the monitor's — the replace it performs catches the same
     raise's monitor delivery still queued *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"ctl" ~cost:(us 1) (fun _ ->
        if !swap_req then begin
          swap_req := false;
          match !link with
          | None -> ()
          | Some l -> (
              match Spin.Linker.replace ~disp:d ~domain:dom l
                      (mon_ext ~ev ~log 1)
              with
              | Ok (nl, sw) ->
                  link := Some nl;
                  inflight_at_flip := sw.Spin.Linker.swap_inflight
              | Error f ->
                  Alcotest.failf "replace failed: %a" Spin.Extension.pp_failure
                    f)
        end)
  in
  (match Spin.Linker.link ~domain:dom (mon_ext ~ev ~log 0) with
  | Ok l -> link := Some l
  | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f);
  Spin.Dispatcher.raise ev 1;
  Sim.Engine.run e;
  swap_req := true;
  (* two raises queue two old-generation deliveries; the control body
     of the first flips mid-flight *)
  Spin.Dispatcher.raise ev 2;
  Spin.Dispatcher.raise ev 3;
  Sim.Engine.run e;
  Spin.Dispatcher.raise ev 4;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "every payload delivered to exactly one generation, in order"
    [ (0, 1); (0, 2); (0, 3); (1, 4) ]
    (List.rev !log);
  Alcotest.(check int) "old-generation deliveries were in flight at the flip"
    2 !inflight_at_flip;
  Alcotest.(check int) "drained after the run" 0
    (Spin.Dispatcher.swap_inflight d);
  Alcotest.(check int) "one swap completed" 1 (Spin.Dispatcher.swaps d)

let swap_abort_on_link_failure () =
  let e, _, d = mk_dispatcher () in
  let dom = Spin.Domain.of_interfaces "d" [] in
  let ev = Spin.Dispatcher.event d "ev" in
  let log = ref [] in
  let l =
    match Spin.Linker.link ~domain:dom (mon_ext ~ev ~log 0) with
    | Ok l -> l
    | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f
  in
  (* the next generation's imports do not resolve: the old one must be
     left running, nothing staged leaks in *)
  let broken =
    Spin.Extension.Compiler.compile ~name:"broken"
      ~imports:[ ("NoSuch", "op") ]
      (fun _ -> ())
  in
  (match Spin.Linker.replace ~disp:d ~domain:dom l broken with
  | Ok _ -> Alcotest.fail "broken replacement linked"
  | Error _ -> ());
  Spin.Dispatcher.raise ev 7;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "old generation still running" [ (0, 7) ] (List.rev !log);
  Alcotest.(check int) "no swap recorded" 0 (Spin.Dispatcher.swaps d);
  Alcotest.(check int) "single handler installed" 1
    (Spin.Dispatcher.handler_count ev)

(* ---- Hot-swap: qcheck churn ------------------------------------------- *)

(* Random install/uninstall/replace/raise sequences against a pure
   model.  Slots 0..2 each hold at most one linked extension instance;
   every instance logs (slot, instance, payload).  The model tracks the
   installed list in table order and predicts the exact delivery log:
   raises deliver to every installed instance in order; a replace during
   a raise's delivery (RaiseSwapMid) still delivers that payload to the
   OLD instance — queued work drains on the retired generation — while
   every later payload sees only the new one.  Zero drops, order
   preserved, counter-for-counter. *)
type churn_op =
  | CInstall of int
  | CUninstall of int
  | CReplace of int
  | CRaise
  | CRaiseSwapMid of int

let churn_gen =
  QCheck.Gen.(
    list_size (0 -- 40)
      (oneof
         [
           map (fun s -> CInstall s) (0 -- 2);
           map (fun s -> CUninstall s) (0 -- 2);
           map (fun s -> CReplace s) (0 -- 2);
           return CRaise;
           map (fun s -> CRaiseSwapMid s) (0 -- 2);
         ]))

let pp_churn_op = function
  | CInstall s -> Printf.sprintf "I%d" s
  | CUninstall s -> Printf.sprintf "U%d" s
  | CReplace s -> Printf.sprintf "R%d" s
  | CRaise -> "!"
  | CRaiseSwapMid s -> Printf.sprintf "!R%d" s

let churn_arbitrary =
  QCheck.make churn_gen ~print:(fun ops ->
      String.concat " " (List.map pp_churn_op ops))

let churn_preserves_delivery =
  QCheck.Test.make ~count:100
    ~name:"replace churn drops nothing and preserves delivery order"
    churn_arbitrary
    (fun ops ->
      let e, _, d = mk_dispatcher () in
      let dom = Spin.Domain.of_interfaces "d" [] in
      let ev = Spin.Dispatcher.event d "ev" in
      let log = ref [] in
      let ext ~slot ~inst =
        Spin.Extension.Compiler.compile
          ~name:(Printf.sprintf "churn.%d.%d" slot inst)
          ~imports:[]
          (fun lk ->
            lk.Spin.Extension.on_unlink
              (Spin.Dispatcher.install ev
                 ~label:(Printf.sprintf "s%d" slot)
                 ~cost:(us 1)
                 (fun v -> log := (slot, inst, v) :: !log)))
      in
      let links = Hashtbl.create 3 in
      let next_inst = Array.make 3 0 in
      let fresh slot =
        let i = next_inst.(slot) in
        next_inst.(slot) <- i + 1;
        i
      in
      (* model: installed (slot, inst) in table order + expected log *)
      let installed = ref [] and expect = ref [] in
      let payload = ref 0 in
      (* a swap request served from inside a delivery, like a manager
         reacting to traffic *)
      let swap_req = ref None in
      let (_ : unit -> unit) =
        Spin.Dispatcher.install ev ~label:"ctl" ~cost:(us 1) (fun _ ->
            match !swap_req with
            | None -> ()
            | Some slot -> (
                swap_req := None;
                match Hashtbl.find_opt links slot with
                | None -> ()
                | Some (l, _) -> (
                    let inst = fresh slot in
                    match
                      Spin.Linker.replace ~disp:d ~domain:dom l
                        (ext ~slot ~inst)
                    with
                    | Ok (nl, _) -> Hashtbl.replace links slot (nl, inst)
                    | Error _ -> failwith "churn: replace failed")))
      in
      let model_replace slot inst =
        installed :=
          List.filter (fun (s, _) -> s <> slot) !installed @ [ (slot, inst) ]
      in
      List.iter
        (fun op ->
          match op with
          | CInstall slot ->
              if not (Hashtbl.mem links slot) then begin
                let inst = fresh slot in
                (match Spin.Linker.link ~domain:dom (ext ~slot ~inst) with
                | Ok l -> Hashtbl.replace links slot (l, inst)
                | Error _ -> failwith "churn: link failed");
                installed := !installed @ [ (slot, inst) ]
              end
          | CUninstall slot -> (
              match Hashtbl.find_opt links slot with
              | None -> ()
              | Some (l, _) ->
                  Spin.Linker.unlink l;
                  Hashtbl.remove links slot;
                  installed := List.filter (fun (s, _) -> s <> slot) !installed
              )
          | CReplace slot -> (
              (* quiescent replace: no deliveries queued *)
              match Hashtbl.find_opt links slot with
              | None -> ()
              | Some (l, _) -> (
                  let inst = fresh slot in
                  match
                    Spin.Linker.replace ~disp:d ~domain:dom l (ext ~slot ~inst)
                  with
                  | Ok (nl, sw) ->
                      Hashtbl.replace links slot (nl, inst);
                      if sw.Spin.Linker.swap_inflight <> 0 then
                        failwith "churn: quiescent replace saw inflight";
                      model_replace slot inst
                  | Error _ -> failwith "churn: replace failed"))
          | CRaise ->
              let p = !payload in
              incr payload;
              expect :=
                !expect @ List.map (fun (s, i) -> (s, i, p)) !installed;
              Spin.Dispatcher.raise ev p;
              Sim.Engine.run e
          | CRaiseSwapMid slot ->
              let p = !payload in
              incr payload;
              (* this payload's deliveries are queued before the control
                 body swaps: the OLD instance gets it *)
              expect :=
                !expect @ List.map (fun (s, i) -> (s, i, p)) !installed;
              if Hashtbl.mem links slot then begin
                swap_req := Some slot;
                model_replace slot next_inst.(slot)
              end;
              Spin.Dispatcher.raise ev p;
              Sim.Engine.run e;
              if Spin.Dispatcher.swap_inflight d <> 0 then
                failwith "churn: inflight did not drain")
        ops;
      List.rev !log = !expect && Spin.Dispatcher.swap_inflight d = 0)

(* ---- Hot-swap churn across domains ------------------------------------ *)

(* The hot-swap protocol churning on every domain of the multicore
   datapath stays counter-for-counter equal to the 1-domain oracle, on a
   small plan and on [plexus-cli parallel]'s default plan (seed 42, 256
   flows x 40) swapping every 64 frames.  Flow cache off: each swap bumps
   the event generation, which invalidates path recordings at
   domain-dependent points — bookkeeping divergence, not behavioural. *)
let par_swap_churn_equivalence () =
  List.iter
    (fun (plan, swap_every) ->
      let oracle = Par.Node.run ~domains:1 ~flowcache:false ~swap_every plan in
      let s = Par.Node.run ~domains:2 ~flowcache:false ~swap_every plan in
      Alcotest.(check bool) "both runs actually swapped" true
        (oracle.Par.Node.swaps > 0 && s.Par.Node.swaps > 0);
      List.iter2
        (fun (name, expected) (_, got) ->
          Alcotest.(check int) ("churn equivalence: " ^ name) expected got)
        (Par.Node.equiv_counters oracle)
        (Par.Node.equiv_counters s))
    [
      (Par.Rss.make ~seed:11 ~flows:64 ~pkts_per_flow:10 (), 16);
      (Par.Rss.make ~seed:42 ~flows:256 ~pkts_per_flow:40 (), 64);
    ]

(* ---- End-to-end experiment -------------------------------------------- *)

(* One run, then the soak [plexus-cli lifecycle] runs by default: five
   runs over varying burst sizes and swap cadences, every invariant held
   on every run and no datagram dropped across a flip. *)
let lifecycle_experiment_ok () =
  let o =
    Experiments.Lifecycle.run_once ~count:40 ~burst:4 ~swap_period:7 ~qcount:6
      ()
  in
  if not (Experiments.Lifecycle.outcome_ok o) then
    Alcotest.failf "lifecycle experiment violated an invariant: %a"
      Experiments.Lifecycle.pp_outcome o;
  let r = Experiments.Lifecycle.run_soak ~runs:5 () in
  Alcotest.(check int) "no datagram dropped in the soak" 0
    (Experiments.Lifecycle.dropped r);
  if not (Experiments.Lifecycle.report_ok r) then
    Alcotest.failf
      "lifecycle soak violated an invariant: %d swaps, %d in flight at worst, \
       %d/%d quarantined, %d/%d rejected, %d failed runs"
      r.Experiments.Lifecycle.l_swaps r.l_max_inflight r.l_quarantined
      r.l_runs r.l_rejected r.l_runs r.l_failures

let suite =
  [
    ( "lifecycle.verifier",
      [
        tc "infer folds the op list" verifier_infer;
        tc "admit gates each resource" verifier_admit;
        tc "event policy rejects at install" install_rejected_by_policy;
        tc "link policy rejects before init" link_rejected_by_policy;
      ] );
    ( "lifecycle.ledger",
      [
        tc "crash vs termination accounting" eph_crash_counted_distinctly;
        tc "async exceptions propagate" async_exceptions_propagate;
        tc "certified bound is the runtime budget"
          certified_budget_is_runtime_budget;
        tc "zero ephemeral budget" ephemeral_zero_budget;
        tc "reinstall splits the ledger by generation"
          ledger_generations_split;
      ] );
    ( "lifecycle.quarantine",
      [
        tc "hog evicted inside the window" quarantine_evicts_hog;
        tc "idle across windows forgiven" quarantine_window_forgives_idle;
        tc "termination thrash evicted" quarantine_on_terminations;
      ] );
    ( "lifecycle.swap",
      [
        tc "mid-delivery replace drops nothing" swap_mid_delivery_zero_drop;
        tc "failed replacement leaves the old running"
          swap_abort_on_link_failure;
        prop churn_preserves_delivery;
        tc "2-domain churn matches the oracle" par_swap_churn_equivalence;
        tc "experiment invariants" lifecycle_experiment_ok;
      ] );
  ]
