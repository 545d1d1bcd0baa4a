(* Tests for the SPIN kernel model: typed symbols, protection domains,
   the compiler/linker pipeline, the event dispatcher and EPHEMERAL
   handler execution. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us

(* ---- Univ ----------------------------------------------------------- *)

let univ_roundtrip () =
  let w : int Spin.Univ.witness = Spin.Univ.witness () in
  let u = Spin.Univ.inj w 42 in
  Alcotest.(check (option int)) "same witness projects" (Some 42)
    (Spin.Univ.proj w u)

let univ_type_isolation () =
  let w1 : int Spin.Univ.witness = Spin.Univ.witness () in
  let w2 : int Spin.Univ.witness = Spin.Univ.witness () in
  let u = Spin.Univ.inj w1 42 in
  Alcotest.(check (option int)) "different witness gets None" None
    (Spin.Univ.proj w2 u)

(* ---- Interface / Domain --------------------------------------------- *)

let int_w : int Spin.Univ.witness = Spin.Univ.witness ()
let str_w : string Spin.Univ.witness = Spin.Univ.witness ()

let interface_basics () =
  let i = Spin.Interface.create "Ether" in
  Spin.Interface.export i ~sym:"mtu" int_w 1500;
  Alcotest.(check bool) "mem" true (Spin.Interface.mem i ~sym:"mtu");
  Alcotest.(check bool) "not mem" false (Spin.Interface.mem i ~sym:"nope");
  Alcotest.(check (list string)) "symbols" [ "mtu" ] (Spin.Interface.symbols i);
  Alcotest.check_raises "duplicate export rejected"
    (Spin.Interface.Duplicate_symbol "Ether.mtu") (fun () ->
      Spin.Interface.export i ~sym:"mtu" int_w 9000)

let domain_resolution () =
  let i1 = Spin.Interface.create "A" in
  Spin.Interface.export i1 ~sym:"x" int_w 1;
  let i2 = Spin.Interface.create "B" in
  Spin.Interface.export i2 ~sym:"y" str_w "s";
  let d = Spin.Domain.of_interfaces "d" [ i1 ] in
  Alcotest.(check bool) "resolves own" true
    (Spin.Domain.can_resolve d ~iface:"A" ~sym:"x");
  Alcotest.(check bool) "cannot see others" false
    (Spin.Domain.can_resolve d ~iface:"B" ~sym:"y");
  Alcotest.(check bool) "missing symbol" false
    (Spin.Domain.can_resolve d ~iface:"A" ~sym:"z");
  let d2 = Spin.Domain.of_interfaces "d2" [ i2 ] in
  let u = Spin.Domain.union "u" d d2 in
  Alcotest.(check bool) "union sees both" true
    (Spin.Domain.can_resolve u ~iface:"B" ~sym:"y"
    && Spin.Domain.can_resolve u ~iface:"A" ~sym:"x");
  (* the union is a copy: extending it does not affect the originals *)
  let i3 = Spin.Interface.create "C" in
  Spin.Domain.add u i3;
  Alcotest.(check bool) "originals unchanged" false
    (Spin.Domain.find_interface d "C" <> None)

(* ---- Compiler / Linker ------------------------------------------------ *)

let make_iface () =
  let i = Spin.Interface.create "Svc" in
  Spin.Interface.export i ~sym:"op" int_w 7;
  i

let link_ok () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let got = ref 0 in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage -> got := linkage.get int_w ~iface:"Svc" ~sym:"op")
  in
  (match Spin.Linker.link ~domain:d ext with
  | Ok l ->
      Alcotest.(check bool) "linked" true (Spin.Linker.is_linked l);
      Alcotest.(check int) "import resolved" 7 !got
  | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f)

let link_rejects_unsigned () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let ext = Spin.Extension.Compiler.forge ~name:"evil" ~imports:[] (fun _ -> ()) in
  match Spin.Linker.link ~domain:d ext with
  | Error Spin.Extension.Unsigned -> ()
  | Ok _ -> Alcotest.fail "forged extension linked!"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let link_rejects_unresolved () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e"
      ~imports:[ ("Svc", "op"); ("Secret", "root") ]
      (fun _ -> ())
  in
  match Spin.Linker.link ~domain:d ext with
  | Error (Spin.Extension.Unresolved [ ("Secret", "root") ]) -> ()
  | Ok _ -> Alcotest.fail "unresolved import linked!"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let link_rejects_undeclared_get () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[]
      (fun linkage ->
        (* tries to grab a symbol it never declared *)
        ignore (linkage.get int_w ~iface:"Svc" ~sym:"op"))
  in
  match Spin.Linker.link ~domain:d ext with
  | Error (Spin.Extension.Undeclared_import ("Svc", "op")) -> ()
  | Ok _ -> Alcotest.fail "undeclared import allowed!"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let link_rejects_type_clash () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage -> ignore (linkage.get str_w ~iface:"Svc" ~sym:"op"))
  in
  match Spin.Linker.link ~domain:d ext with
  | Error (Spin.Extension.Type_clash ("Svc", "op")) -> ()
  | Ok _ -> Alcotest.fail "type clash allowed!"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let link_failed_init_rolls_back () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let undone = ref false in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage ->
        linkage.on_unlink (fun () -> undone := true);
        failwith "boom")
  in
  match Spin.Linker.link ~domain:d ext with
  | Error (Spin.Extension.Init_raised _) ->
      Alcotest.(check bool) "cleanups ran" true !undone
  | Ok _ -> Alcotest.fail "failing init linked!"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let unlink_runs_cleanups () =
  let d = Spin.Domain.of_interfaces "d" [ make_iface () ] in
  let cleanups = ref [] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[]
      (fun linkage ->
        linkage.on_unlink (fun () -> cleanups := 1 :: !cleanups);
        linkage.on_unlink (fun () -> cleanups := 2 :: !cleanups))
  in
  match Spin.Linker.link ~domain:d ext with
  | Error _ -> Alcotest.fail "link failed"
  | Ok l ->
      Spin.Linker.unlink l;
      Alcotest.(check bool) "unlinked" false (Spin.Linker.is_linked l);
      (* reverse registration order *)
      Alcotest.(check (list int)) "cleanup order" [ 1; 2 ] !cleanups;
      Spin.Linker.unlink l;
      Alcotest.(check (list int)) "idempotent" [ 1; 2 ] !cleanups

let compiler_rejects_duplicate_imports () =
  Alcotest.check_raises "duplicate imports"
    (Spin.Extension.Compiler.Compile_error "duplicate import Svc.op")
    (fun () ->
      ignore
        (Spin.Extension.Compiler.compile ~name:"e"
           ~imports:[ ("Svc", "op"); ("Svc", "op") ]
           (fun _ -> ())))

(* ---- Ephemeral -------------------------------------------------------- *)

let ephemeral_commits_all_without_budget () =
  let n = ref 0 in
  let prog = List.init 5 (fun _ -> Spin.Ephemeral.work ~label:"w" ~cost:(us 3) (fun () -> incr n)) in
  let r = Spin.Ephemeral.execute prog in
  Alcotest.(check int) "all committed" 5 r.Spin.Ephemeral.committed;
  Alcotest.(check bool) "not terminated" false r.Spin.Ephemeral.terminated;
  Alcotest.(check int) "effects" 5 !n;
  Alcotest.(check int) "consumed" 15_000 (Sim.Stime.to_ns r.Spin.Ephemeral.consumed)

let ephemeral_budget_terminates () =
  let n = ref 0 in
  let prog = List.init 5 (fun _ -> Spin.Ephemeral.work ~label:"w" ~cost:(us 3) (fun () -> incr n)) in
  let r = Spin.Ephemeral.execute ~budget:(us 7) prog in
  Alcotest.(check int) "prefix committed" 2 r.Spin.Ephemeral.committed;
  Alcotest.(check bool) "terminated" true r.Spin.Ephemeral.terminated;
  Alcotest.(check int) "only prefix effects" 2 !n;
  Alcotest.(check int) "charged up to the budget" 7_000
    (Sim.Stime.to_ns r.Spin.Ephemeral.consumed)

let ephemeral_budget_exact_boundary () =
  let prog = List.init 3 (fun _ -> Spin.Ephemeral.work ~label:"w" ~cost:(us 3) ignore) in
  let r = Spin.Ephemeral.execute ~budget:(us 9) prog in
  Alcotest.(check bool) "exact fit is not a termination" false
    r.Spin.Ephemeral.terminated;
  Alcotest.(check int) "all committed" 3 r.Spin.Ephemeral.committed

let ephemeral_plan_no_side_effects () =
  let n = ref 0 in
  let prog = [ Spin.Ephemeral.work ~label:"w" ~cost:(us 1) (fun () -> incr n) ] in
  let plan = Spin.Ephemeral.plan prog in
  Alcotest.(check int) "planning is pure" 0 !n;
  ignore (Spin.Ephemeral.commit plan);
  Alcotest.(check int) "commit applies" 1 !n

let ephemeral_helpers () =
  let q = Queue.create () in
  let c = ref 0 in
  let prog = [ Spin.Ephemeral.enqueue q 42; Spin.Ephemeral.count c ] in
  ignore (Spin.Ephemeral.execute prog);
  Alcotest.(check int) "enqueued" 42 (Queue.pop q);
  Alcotest.(check int) "counted" 1 !c;
  Alcotest.(check int) "total cost"
    (Sim.Stime.to_ns (Spin.Ephemeral.total_cost prog))
    400

let ephemeral_budget_prefix =
  QCheck.Test.make ~name:"budget commits exactly the affordable prefix"
    QCheck.(pair (list_of_size Gen.(0 -- 20) (int_range 1 10)) (int_range 0 100))
    (fun (costs, budget) ->
      let prog =
        List.map (fun c -> Spin.Ephemeral.work ~label:"w" ~cost:(us c) ignore) costs
      in
      let r = Spin.Ephemeral.execute ~budget:(us budget) prog in
      let rec affordable acc n = function
        | [] -> n
        | c :: rest ->
            if acc + c <= budget then affordable (acc + c) (n + 1) rest else n
      in
      r.Spin.Ephemeral.committed = affordable 0 0 costs)

(* ---- Dispatcher -------------------------------------------------------- *)

let mk_dispatcher () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  (e, cpu, Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs ())

let dispatcher_basic_raise () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let got = ref [] in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:(us 1) (fun x -> got := x :: !got)
  in
  Spin.Dispatcher.raise ev 42;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "delivered" [ 42 ] !got;
  Alcotest.(check int) "raises" 1 (Spin.Dispatcher.raises d);
  Alcotest.(check int) "invocations" 1 (Spin.Dispatcher.invocations d)

let dispatcher_guards_filter () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let evens = ref 0 and odds = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x mod 2 = 0) ~cost:(us 1)
      (fun _ -> incr evens)
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x mod 2 = 1) ~cost:(us 1)
      (fun _ -> incr odds)
  in
  List.iter (Spin.Dispatcher.raise ev) [ 1; 2; 3; 4; 5 ];
  Sim.Engine.run e;
  Alcotest.(check int) "evens" 2 !evens;
  Alcotest.(check int) "odds" 3 !odds;
  Alcotest.(check int) "guard evals: every guard, every raise" 10
    (Spin.Dispatcher.guard_evals d)

let dispatcher_multiple_handlers () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let order = ref [] in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:(us 1) (fun _ -> order := "h1" :: !order)
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:(us 1) (fun _ -> order := "h2" :: !order)
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check (list string)) "install order" [ "h1"; "h2" ] (List.rev !order);
  Alcotest.(check int) "handler count" 2 (Spin.Dispatcher.handler_count ev)

let dispatcher_uninstall () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let n = ref 0 in
  let un = Spin.Dispatcher.install ev ~cost:(us 1) (fun _ -> incr n) in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  un ();
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check int) "only before uninstall" 1 !n;
  Alcotest.(check int) "no handlers left" 0 (Spin.Dispatcher.handler_count ev)

let dispatcher_cost_charged () =
  let e, cpu, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let (_ : unit -> unit) = Spin.Dispatcher.install ev ~cost:(us 10) ignore in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  (* dispatch 0.4 + guard 0.3 + handler 10 *)
  Alcotest.(check int) "cpu busy = dispatch + guard + handler" 10_700
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let dispatcher_dyncost () =
  let e, cpu, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:(us 1) ~dyncost:(fun n -> us n) ignore
  in
  Spin.Dispatcher.raise ev 5;
  Sim.Engine.run e;
  Alcotest.(check int) "dyncost added" 6_700
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let dispatcher_thread_mode_cost () =
  let e, cpu, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d ~mode:Spin.Dispatcher.Thread "test" in
  let (_ : unit -> unit) = Spin.Dispatcher.install ev ~cost:(us 10) ignore in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  (* + the default 12us thread spawn *)
  Alcotest.(check int) "thread spawn charged" 22_700
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let dispatcher_ephemeral_and_termination () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  let committed = ref 0 in
  let prog _ =
    List.init 4 (fun _ -> Spin.Ephemeral.work ~label:"w" ~cost:(us 5) (fun () -> incr committed))
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~budget:(us 12) prog
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check int) "prefix committed" 2 !committed;
  Alcotest.(check int) "termination counted" 1 (Spin.Dispatcher.terminations d)

let dispatcher_mode_switch () =
  let _, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "test" in
  Alcotest.(check bool) "default interrupt" true
    (Spin.Dispatcher.mode ev = Spin.Dispatcher.Interrupt);
  Spin.Dispatcher.set_mode ev Spin.Dispatcher.Thread;
  Alcotest.(check bool) "switched" true
    (Spin.Dispatcher.mode ev = Spin.Dispatcher.Thread)

(* ---- Kernel ------------------------------------------------------------ *)

let kernel_interfaces () =
  let e = Sim.Engine.create () in
  let k = Spin.Kernel.create e ~name:"host" in
  let i = Spin.Kernel.declare_interface k "Ether" in
  let i' = Spin.Kernel.declare_interface k "Ether" in
  Alcotest.(check bool) "find-or-create returns same" true (i == i');
  Spin.Interface.export i ~sym:"op" int_w 9;
  Alcotest.(check bool) "root domain sees it" true
    (Spin.Domain.can_resolve (Spin.Kernel.root_domain k) ~iface:"Ether" ~sym:"op");
  let d = Spin.Kernel.restricted_domain k "app" [ "Ether" ] in
  Alcotest.(check bool) "restricted resolves" true
    (Spin.Domain.can_resolve d ~iface:"Ether" ~sym:"op");
  Alcotest.check_raises "unknown interface"
    (Invalid_argument "Kernel.restricted_domain: no interface Nope") (fun () ->
      ignore (Spin.Kernel.restricted_domain k "x" [ "Nope" ]))

let kernel_link_end_to_end () =
  let e = Sim.Engine.create () in
  let k = Spin.Kernel.create e ~name:"host" in
  let i = Spin.Kernel.declare_interface k "Svc" in
  Spin.Interface.export i ~sym:"op" int_w 5;
  let d = Spin.Kernel.restricted_domain k "app" [ "Svc" ] in
  let got = ref 0 in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage -> got := linkage.get int_w ~iface:"Svc" ~sym:"op")
  in
  (match Spin.Kernel.link k ~domain:d ext with
  | Ok _ -> Alcotest.(check int) "linked and resolved" 5 !got
  | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f)

let suite =
  [
    ( "spin.univ",
      [ tc "roundtrip" univ_roundtrip; tc "witness isolation" univ_type_isolation ] );
    ( "spin.domain",
      [ tc "interface basics" interface_basics; tc "resolution" domain_resolution ] );
    ( "spin.linker",
      [
        tc "successful link" link_ok;
        tc "rejects unsigned" link_rejects_unsigned;
        tc "rejects unresolved symbols" link_rejects_unresolved;
        tc "rejects undeclared gets" link_rejects_undeclared_get;
        tc "rejects type clashes" link_rejects_type_clash;
        tc "failed init rolls back" link_failed_init_rolls_back;
        tc "unlink runs cleanups in reverse" unlink_runs_cleanups;
        tc "compiler rejects duplicate imports" compiler_rejects_duplicate_imports;
      ] );
    ( "spin.ephemeral",
      [
        tc "commits all without budget" ephemeral_commits_all_without_budget;
        tc "budget terminates between actions" ephemeral_budget_terminates;
        tc "exact budget boundary" ephemeral_budget_exact_boundary;
        tc "plan is pure" ephemeral_plan_no_side_effects;
        tc "enqueue/count helpers" ephemeral_helpers;
        prop ephemeral_budget_prefix;
      ] );
    ( "spin.dispatcher",
      [
        tc "raise delivers" dispatcher_basic_raise;
        tc "guards demultiplex" dispatcher_guards_filter;
        tc "multiple handlers in order" dispatcher_multiple_handlers;
        tc "uninstall" dispatcher_uninstall;
        tc "costs charged to cpu" dispatcher_cost_charged;
        tc "dyncost" dispatcher_dyncost;
        tc "thread mode spawn cost" dispatcher_thread_mode_cost;
        tc "ephemeral budget termination" dispatcher_ephemeral_and_termination;
        tc "mode switch" dispatcher_mode_switch;
      ] );
    ( "spin.kernel",
      [
        tc "interface registry and domains" kernel_interfaces;
        tc "link through the kernel" kernel_link_end_to_end;
      ] );
  ]

(* Random install/uninstall interleavings keep handler bookkeeping
   consistent, and every surviving handler still fires. *)
let dispatcher_install_model =
  QCheck.Test.make ~count:80 ~name:"install/uninstall model"
    QCheck.(list (pair bool (int_bound 7)))
    (fun ops ->
      let e = Sim.Engine.create () in
      let cpu = Sim.Cpu.create e ~name:"c" in
      let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
      let ev = Spin.Dispatcher.event d "m" in
      let installed : (int, int ref * (unit -> unit)) Hashtbl.t =
        Hashtbl.create 8
      in
      let next = ref 0 in
      List.iter
        (fun (is_install, slot) ->
          if is_install then begin
            let counter = ref 0 in
            let un =
              Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (fun () ->
                  incr counter)
            in
            Hashtbl.replace installed !next (counter, un);
            incr next
          end
          else begin
            (* uninstall an arbitrary existing handler *)
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) installed [] in
            match List.nth_opt (List.sort compare keys) (slot mod max 1 (List.length keys)) with
            | Some k when keys <> [] ->
                let _, un = Hashtbl.find installed k in
                un ();
                Hashtbl.remove installed k
            | _ -> ()
          end)
        ops;
      Alcotest.(check int) "count matches model" (Hashtbl.length installed)
        (Spin.Dispatcher.handler_count ev);
      Spin.Dispatcher.raise ev ();
      Sim.Engine.run e;
      Hashtbl.fold (fun _ (c, _) acc -> acc && !c = 1) installed true)

let suite =
  suite @ [ ("spin.dispatcher_model", [ prop dispatcher_install_model ]) ]

(* Ephemeral handlers on a thread-mode event still pay the spawn and
   still terminate transactionally. *)
let ephemeral_in_thread_mode () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d ~mode:Spin.Dispatcher.Thread "t" in
  let committed = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~budget:(us 7) (fun () ->
        List.init 3 (fun _ ->
            Spin.Ephemeral.work ~label:"w" ~cost:(us 3) (fun () ->
                incr committed)))
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check int) "prefix committed" 2 !committed;
  Alcotest.(check int) "termination counted" 1 (Spin.Dispatcher.terminations d);
  (* demux (0.4+0.3) + spawn 12 + consumed 7 *)
  Alcotest.(check int) "spawn + consumed charged" 19_700
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let suite =
  suite @ [ ("spin.eph_thread", [ tc "ephemeral in thread mode" ephemeral_in_thread_mode ]) ]

(* ---- Keyed dispatch ----------------------------------------------------- *)

(* An int event keyed on the payload's own value (one dimension): the
   handler for key [k] only sees raises of [k]. *)
let mk_keyed_event d =
  let ev = Spin.Dispatcher.event d "keyed" in
  Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  ev

let keyed_skips_other_buckets () =
  let e, _, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let hits = Array.make 4 0 in
  for k = 0 to 3 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev ~guard:(fun x -> x = k) ~keys:[ k ]
        ~cost:Sim.Stime.zero
        (fun _ -> hits.(k) <- hits.(k) + 1)
    in
    ()
  done;
  Alcotest.(check int) "all installed" 4 (Spin.Dispatcher.handler_count ev);
  List.iter (Spin.Dispatcher.raise ev) [ 2; 2; 3 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "only matching keys fired" [ 0; 0; 2; 1 ]
    (Array.to_list hits);
  (* each raise evaluated exactly its own leaf's guard, never the other
     three *)
  Alcotest.(check int) "guard evals = candidates only" 3
    (Spin.Dispatcher.guard_evals d);
  Alcotest.(check int) "every raise walked the tree" 3
    (Spin.Dispatcher.tree_raises ev)

(* Install order is preserved even when delivery mixes keyed handlers
   and unkeyed residuals. *)
let keyed_preserves_install_order () =
  let e, _, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let order = ref [] in
  let record tag = fun _ -> order := tag :: !order in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 7) ~keys:[ 7 ]
      ~cost:Sim.Stime.zero (record "k1")
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (record "u1")
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 7) ~keys:[ 7 ]
      ~cost:Sim.Stime.zero (record "k2")
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (record "u2")
  in
  Spin.Dispatcher.raise ev 7;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "keyed and unkeyed interleave in install order"
    [ "k1"; "u1"; "k2"; "u2" ] (List.rev !order)

let keyed_uninstall_while_queued () =
  let e, _, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let n = ref 0 in
  let un =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 1) ~keys:[ 1 ]
      ~cost:Sim.Stime.zero (fun _ -> incr n)
  in
  Spin.Dispatcher.raise ev 1;
  (* uninstalled after the raise but before the engine delivers it *)
  un ();
  Sim.Engine.run e;
  Alcotest.(check int) "uninstalled-while-queued does not fire" 0 !n;
  Alcotest.(check int) "handler gone" 0 (Spin.Dispatcher.handler_count ev);
  (* the rebuilt tree is an empty leaf: a fresh raise has no candidate *)
  Spin.Dispatcher.raise ev 1;
  Sim.Engine.run e;
  Alcotest.(check int) "still silent" 0 !n

let keyed_raise_cost () =
  let e, cpu, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  (* two keys; only one leaf is reached *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 1) ~keys:[ 1 ]
      ~cost:(us 10) ignore
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 2) ~keys:[ 2 ]
      ~cost:(us 10) ignore
  in
  Spin.Dispatcher.raise ev 1;
  Sim.Engine.run e;
  (* merged-tree dispatch: dispatch 0.4 + one tree switch 0.1 + the
     matching leaf's one residual guard 0.3 + handler 10; the second
     handler's guard is neither run nor charged *)
  Alcotest.(check int) "tree raise charges the walk + matching guards"
    10_800
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let keyed_guard_fault_contained () =
  let e, _, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let survivor = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun _ -> failwith "bad guard")
      ~keys:[ 5 ] ~cost:Sim.Stime.zero ignore
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 5) ~keys:[ 5 ]
      ~cost:Sim.Stime.zero (fun _ -> incr survivor)
  in
  Spin.Dispatcher.raise ev 5;
  Sim.Engine.run e;
  Alcotest.(check int) "fault counted" 1 (Spin.Dispatcher.faults d);
  Alcotest.(check int) "faulting handler uninstalled" 1
    (Spin.Dispatcher.handler_count ev);
  Alcotest.(check int) "same-leaf survivor still fired" 1 !survivor

(* The model property again, but against a keyed event with handlers
   spread over keys and unkeyed residuals at random. *)
let keyed_install_model =
  QCheck.Test.make ~count:80 ~name:"keyed install/uninstall model"
    QCheck.(list (triple bool (int_bound 7) (option (int_bound 3))))
    (fun ops ->
      let e = Sim.Engine.create () in
      let cpu = Sim.Cpu.create e ~name:"c" in
      let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
      let ev = Spin.Dispatcher.event d "m" in
      Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
      let installed : (int, int ref * (unit -> unit)) Hashtbl.t =
        Hashtbl.create 8
      in
      let next = ref 0 in
      List.iter
        (fun (is_install, slot, key) ->
          if is_install then begin
            let counter = ref 0 in
            let guard =
              match key with None -> fun _ -> true | Some k -> fun x -> x = k
            in
            let un =
              Spin.Dispatcher.install ev ~guard ~keys:(Option.to_list key)
                ~cost:Sim.Stime.zero
                (fun _ -> incr counter)
            in
            Hashtbl.replace installed !next (counter, un);
            incr next
          end
          else begin
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) installed [] in
            match
              List.nth_opt (List.sort compare keys)
                (slot mod max 1 (List.length keys))
            with
            | Some k when keys <> [] ->
                let _, un = Hashtbl.find installed k in
                un ();
                Hashtbl.remove installed k
            | _ -> ()
          end)
        ops;
      Alcotest.(check int) "count matches model" (Hashtbl.length installed)
        (Spin.Dispatcher.handler_count ev);
      (* raise every key value: each surviving handler must fire exactly
         once (keyed ones on their own key's raise, unkeyed on all four —
         so unkeyed fire 4x) *)
      for k = 0 to 3 do
        Spin.Dispatcher.raise ev k
      done;
      Sim.Engine.run e;
      Hashtbl.fold
        (fun _ (c, _) acc -> acc && (!c = 1 || !c = 4))
        installed true)

(* ---- Merged decision tree ----------------------------------------------- *)

(* A two-dimension event: payload is (a, b); dim 0 reads a, dim 1 reads
   b, -1 meaning absent.  Exercises prefix sharing (two handlers pinning
   the same a share the dim-0 edge), exact-path guard skipping,
   leaf residuals for opaque guards, and unsatisfiable-handler drop. *)
let tree_merges_and_skips () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "tree2d" in
  Spin.Dispatcher.set_keyvfn ev ~dims:2 (fun (a, b) dst ->
      dst.(0) <- a;
      dst.(1) <- b);
  let key dim v = (dim lsl 16) lor v in
  let hits = Hashtbl.create 8 in
  let hit tag = fun _ ->
    Hashtbl.replace hits tag (1 + Option.value ~default:0 (Hashtbl.find_opt hits tag))
  in
  let evals = ref 0 in
  (* exact on (a=1, b=2): the walk proves it, the guard must not run *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev
      ~guard:(fun _ -> incr evals; true)
      ~keys:[ key 0 1; key 1 2 ] ~exact:true ~cost:Sim.Stime.zero (hit "exact12")
  in
  (* keyed on a=1 only, inexact: leaf residual, guard still runs *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev
      ~guard:(fun (a, b) -> incr evals; a = 1 && b mod 2 = 0)
      ~keys:[ key 0 1 ] ~cost:Sim.Stime.zero (hit "resid1x")
  in
  (* pins two values on one dimension: unsatisfiable, dropped *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev
      ~guard:(fun _ -> incr evals; false)
      ~keys:[ key 0 3; key 0 4 ] ~cost:Sim.Stime.zero (hit "unsat")
  in
  (match Spin.Dispatcher.compiled_tree ev with
  | Spin.Dispatcher.Tree_switch { tv_dim; tv_cases; _ } ->
      Alcotest.(check int) "root switches on dim 0" 0 tv_dim;
      (* the unsatisfiable handler contributed no jump-table entry *)
      Alcotest.(check (list int)) "cases are the satisfiable pins" [ 1 ]
        (List.map fst tv_cases)
  | Spin.Dispatcher.Tree_leaf _ -> Alcotest.fail "root should switch");
  Spin.Dispatcher.raise ev (1, 2);  (* exact12 proven + resid1x accepted *)
  Spin.Dispatcher.raise ev (1, 3);  (* exact12 out (b<>2), resid1x rejects *)
  Spin.Dispatcher.raise ev (9, 9);  (* default path: nothing *)
  Sim.Engine.run e;
  let count tag = Option.value ~default:0 (Hashtbl.find_opt hits tag) in
  Alcotest.(check int) "exact handler fired without its guard" 1
    (count "exact12");
  Alcotest.(check int) "residual fired where its guard said yes" 1
    (count "resid1x");
  Alcotest.(check int) "unsatisfiable handler never fired" 0 (count "unsat");
  (* residual evaluated on the two a=1 raises; the exact and the dropped
     guards never ran *)
  Alcotest.(check int) "only residual guards evaluated" 2 !evals;
  Alcotest.(check int) "every raise walked the tree" 3
    (Spin.Dispatcher.tree_raises ev)

(* A tree raise queues its demux, and the demux queues one invocation per
   accepted handler, on recycled records with prebuilt thunks: in steady
   state neither the raise nor the deliveries allocate. *)
let tree_delivery_allocates_nothing () =
  let e, _, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "tree1d" in
  Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  let runs = ref 0 in
  for k = 0 to 3 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev ~keys:[ k ] ~exact:true ~cost:(us 1)
        (fun _ -> incr runs)
    in
    ()
  done;
  (* an opaque guard: a residual at every leaf *)
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x land 1 = 0) ~cost:(us 1)
      (fun _ -> incr runs)
  in
  let n = 1000 in
  let burst () =
    for i = 1 to n do
      Spin.Dispatcher.raise ev (i land 3)
    done;
    Sim.Engine.run e
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "exact on every raise, residual on half" (2 * 3 * n / 2)
    !runs;
  if words > 0.1 then
    Alcotest.failf "%.2f minor words per raise and its deliveries" words

(* Churn invalidates the compiled tree through the generation counter:
   the rebuilt tree must reflect the new handler set. *)
let tree_rebuilds_on_churn () =
  let e, _, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let hits = Array.make 3 0 in
  let ins k =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = k) ~keys:[ k ] ~exact:true
      ~cost:Sim.Stime.zero (fun _ -> hits.(k) <- hits.(k) + 1)
  in
  let un0 = ins 0 in
  let (_ : unit -> unit) = ins 1 in
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  un0 ();
  let (_ : unit -> unit) = ins 2 in
  Spin.Dispatcher.raise ev 0;
  Spin.Dispatcher.raise ev 2;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "rebuilt tree routes the new set" [ 1; 0; 1 ]
    (Array.to_list hits)

(* The shapes that compile to a single leaf charge exactly the plain
   guard scan: dispatch 0.4 + guard 0.3 per handler, no switch. *)
let one_leaf_cost () =
  (* one handler, keyed and exact: still a one-leaf tree whose guard
     runs — not a 0.1 switch that proves it without a guard *)
  let e, cpu, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let evals = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev
      ~guard:(fun x -> incr evals; x = 1)
      ~keys:[ 1 ] ~exact:true ~cost:(us 10) ignore
  in
  Spin.Dispatcher.raise ev 1;
  Sim.Engine.run e;
  Alcotest.(check int) "one exact handler: dispatch + guard + handler"
    10_700
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  Alcotest.(check int) "its guard ran" 1 !evals;
  (match Spin.Dispatcher.compiled_tree ev with
  | Spin.Dispatcher.Tree_leaf { tv_exact = []; tv_resid = [ (0, _) ] } -> ()
  | _ -> Alcotest.fail "expected one leaf holding the handler as a residual");
  (* three unkeyed handlers on an event without an extractor *)
  let e, cpu, d = mk_dispatcher () in
  let ev = Spin.Dispatcher.event d "plain" in
  for _ = 1 to 3 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev ~guard:(fun _ -> true) ~cost:(us 10) ignore
    in
    ()
  done;
  Spin.Dispatcher.raise ev 0;
  Sim.Engine.run e;
  Alcotest.(check int) "three unkeyed: dispatch + 3 guards + handlers"
    (400 + (3 * 300) + 30_000)
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  Alcotest.(check int) "three guard evaluations" 3
    (Spin.Dispatcher.guard_evals d)

(* Keys the tree cannot express — dimension >= 64, or negative — make
   their handler a residual at every leaf; the event's other handlers
   still get switches. *)
let inexpressible_keys_are_residuals () =
  let e, cpu, d = mk_dispatcher () in
  let ev = mk_keyed_event d in
  let order = ref [] in
  let record tag = fun _ -> order := tag :: !order in
  let exact k tag =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = k) ~keys:[ k ] ~exact:true
      ~cost:Sim.Stime.zero (record tag)
  in
  let (_ : unit -> unit) = exact 1 "a" in
  let (_ : unit -> unit) = exact 2 "b" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 1)
      ~keys:[ (64 lsl 16) lor 1 ] ~cost:Sim.Stime.zero (record "dim64")
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun x -> x = 1) ~keys:[ -5 ]
      ~cost:Sim.Stime.zero (record "negative")
  in
  (match Spin.Dispatcher.compiled_tree ev with
  | Spin.Dispatcher.Tree_switch { tv_dim = 0; tv_cases; _ } ->
      Alcotest.(check (list int)) "the expressible keys switch" [ 1; 2 ]
        (List.map fst tv_cases);
      List.iter
        (function
          | _, Spin.Dispatcher.Tree_leaf { tv_resid; _ } ->
              Alcotest.(check (list int)) "residual at every leaf" [ 2; 3 ]
                (List.map fst tv_resid)
          | _ -> Alcotest.fail "expected leaves under the switch")
        tv_cases
  | _ -> Alcotest.fail "expected a switch on dimension 0");
  Spin.Dispatcher.raise ev 1;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "proven and residual handlers fire"
    [ "a"; "dim64"; "negative" ] (List.rev !order);
  (* dispatch 0.4 + one switch 0.1 + two residual guards 0.3 *)
  Alcotest.(check int) "walk + residual guards" 1_100
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

(* The paper's claim that demultiplexing stays cheap as extensions pile
   up, stated as per-raise counters that repeat exactly from run to run.
   An event holds [n] keyed exact handlers, one per payload value, and
   every raise matches the middle one.  From 8 handlers on, the walk is
   one switch and proves its leaf without a guard, so minor words, guard
   evaluations, engine events and simulated time per raise are the same
   at 8, 64 and 256 handlers.  A lone handler compiles to a one-leaf
   tree whose guard runs; the switch must never cost more than that. *)
let keyed_raise_flat_in_handler_count () =
  let per_raise n =
    let e, cpu, d = mk_dispatcher () in
    let ev = mk_keyed_event d in
    for k = 0 to n - 1 do
      let (_ : unit -> unit) =
        Spin.Dispatcher.install ev ~guard:(fun x -> x = k) ~keys:[ k ]
          ~exact:true ~cost:Sim.Stime.zero ignore
      in
      ()
    done;
    let raises = 1000 and target = n / 2 in
    let burst () =
      for _ = 1 to raises do
        Spin.Dispatcher.raise ev target;
        Sim.Engine.run e
      done
    in
    burst ();
    let g0 = Spin.Dispatcher.guard_evals d and e0 = Sim.Engine.events_run e in
    let b0 = Sim.Stime.to_ns (Sim.Cpu.busy_time cpu) in
    let w0 = Gc.minor_words () in
    burst ();
    let words = Gc.minor_words () -. w0 in
    let per x = float_of_int x /. float_of_int raises in
    ( words /. float_of_int raises,
      per (Spin.Dispatcher.guard_evals d - g0),
      per (Sim.Engine.events_run e - e0),
      per (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu) - b0) )
  in
  let counters =
    Alcotest.(pair (pair (float 0.) (float 0.)) (pair (float 0.) (float 0.)))
  in
  let nest (w, g, ev, ns) = ((w, g), (ev, ns)) in
  let t1 = per_raise 1 and t8 = per_raise 8 in
  (* dispatch 0.4 + one switch 0.1, no guard, no words *)
  Alcotest.check counters "8 handlers: words, guards, events, sim ns"
    ((0., 0.), (2., 500.)) (nest t8);
  List.iter
    (fun n ->
      Alcotest.check counters
        (Printf.sprintf "%d handlers cost what 8 do" n)
        (nest t8) (nest (per_raise n)))
    [ 64; 256 ];
  let w1, g1, e1, ns1 = t1 and w8, g8, e8, ns8 = t8 in
  if w8 > w1 || g8 > g1 || e8 > e1 || ns8 > ns1 then
    Alcotest.failf
      "the switch costs more than a lone guarded leaf: %.2f/%.2f words, \
       %.2f/%.2f guards, %.2f/%.2f events, %.0f/%.0f ns"
      w8 w1 g8 g1 e8 e1 ns8 ns1

let suite =
  suite
  @ [
      ( "spin.dispatch_index",
        [
          tc "index skips other buckets" keyed_skips_other_buckets;
          tc "install order across buckets" keyed_preserves_install_order;
          tc "uninstall while queued" keyed_uninstall_while_queued;
          tc "indexed raise cost" keyed_raise_cost;
          tc "guard fault in a bucket" keyed_guard_fault_contained;
          prop keyed_install_model;
        ] );
      ( "spin.dispatch_tree",
        [
          tc "merge, prefix share, exact skip" tree_merges_and_skips;
          tc "rebuild on churn" tree_rebuilds_on_churn;
          tc "raise and deliveries allocate nothing"
            tree_delivery_allocates_nothing;
          tc "one-leaf shapes charge the guard scan" one_leaf_cost;
          tc "inexpressible keys become residuals"
            inexpressible_keys_are_residuals;
          tc "keyed raise cost flat in handler count"
            keyed_raise_flat_in_handler_count;
        ] );
    ]
