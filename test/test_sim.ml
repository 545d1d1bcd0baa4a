(* Tests for the discrete-event simulation substrate. *)

let us = Sim.Stime.us
let check_time = Alcotest.(check int)

(* ---- Stime ---------------------------------------------------------- *)

let stime_units () =
  check_time "us" 1_000 (Sim.Stime.to_ns (Sim.Stime.us 1));
  check_time "ms" 1_000_000 (Sim.Stime.to_ns (Sim.Stime.ms 1));
  check_time "s" 1_000_000_000 (Sim.Stime.to_ns (Sim.Stime.s 1));
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Stime.to_us (Sim.Stime.ns 1500))

let stime_arith () =
  let a = us 10 and b = us 3 in
  check_time "add" 13_000 (Sim.Stime.to_ns (Sim.Stime.add a b));
  check_time "sub" 7_000 (Sim.Stime.to_ns (Sim.Stime.sub a b));
  check_time "mul" 30_000 (Sim.Stime.to_ns (Sim.Stime.mul a 3));
  check_time "scale" 15_000 (Sim.Stime.to_ns (Sim.Stime.scale a 1.5));
  check_time "max" 10_000 (Sim.Stime.to_ns (Sim.Stime.max a b));
  check_time "min" 3_000 (Sim.Stime.to_ns (Sim.Stime.min a b));
  Alcotest.(check bool) "pos" true (Sim.Stime.is_positive a);
  Alcotest.(check bool) "zero not pos" false (Sim.Stime.is_positive Sim.Stime.zero)

let stime_of_float () =
  check_time "of_us_f rounds" 1_500 (Sim.Stime.to_ns (Sim.Stime.of_us_f 1.5));
  check_time "of_s_f" 2_000_000_000 (Sim.Stime.to_ns (Sim.Stime.of_s_f 2.0))

let stime_pp () =
  Alcotest.(check string) "ns" "512ns" (Sim.Stime.to_string (Sim.Stime.ns 512));
  Alcotest.(check string) "us" "1.50us" (Sim.Stime.to_string (Sim.Stime.ns 1500));
  Alcotest.(check string) "ms" "2.000ms" (Sim.Stime.to_string (Sim.Stime.ms 2))

(* ---- Pheap ---------------------------------------------------------- *)

let pheap_order () =
  let h = Pheap.create () in
  List.iter (fun k -> Pheap.add h ~key:k k) [ 5; 1; 9; 3; 7 ];
  let popped = List.init 5 (fun _ ->
      match Pheap.pop_min h with Some (k, _) -> k | None -> -1)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] popped

let pheap_stability () =
  let h = Pheap.create () in
  List.iteri (fun i v -> Pheap.add h ~key:7 (i, v)) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ ->
      match Pheap.pop_min h with Some (_, (_, v)) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "a"; "b"; "c" ] popped

let pheap_peek_and_sizes () =
  let h = Pheap.create () in
  Alcotest.(check bool) "empty" true (Pheap.is_empty h);
  Alcotest.(check (option (pair int int))) "peek empty" None (Pheap.peek_min h);
  Pheap.add h ~key:4 42;
  Pheap.add h ~key:2 24;
  Alcotest.(check int) "size" 2 (Pheap.size h);
  Alcotest.(check (option (pair int int))) "peek" (Some (2, 24)) (Pheap.peek_min h);
  Alcotest.(check int) "peek preserves" 2 (Pheap.size h);
  Pheap.clear h;
  Alcotest.(check bool) "cleared" true (Pheap.is_empty h)

let pheap_qcheck =
  QCheck.Test.make ~name:"pheap pops in sorted order"
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Pheap.create () in
      List.iter (fun k -> Pheap.add h ~key:k k) keys;
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* ---- Rng ------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  let xs = List.init 10 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Sim.Rng.create seed in
      List.for_all (fun _ -> let x = Sim.Rng.int r n in x >= 0 && x < n)
        (List.init 50 Fun.id))

let rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      List.for_all (fun _ -> let x = Sim.Rng.float r 3.5 in x >= 0. && x < 3.5)
        (List.init 50 Fun.id))

let rng_exponential_positive () =
  let r = Sim.Rng.create 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Sim.Rng.exponential r ~mean:5. > 0.)
  done

(* ---- Engine --------------------------------------------------------- *)

let engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:(us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~at:(us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~at:(us 20) (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_time "clock at last event" 30_000 (Sim.Stime.to_ns (Sim.Engine.now e))

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:(us 10) (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check int) "no events counted" 0 (Sim.Engine.events_run e)

let engine_schedule_in () =
  let e = Sim.Engine.create () in
  let at = ref Sim.Stime.zero in
  ignore (Sim.Engine.schedule e ~at:(us 5) (fun () ->
      ignore (Sim.Engine.schedule_in e ~delay:(us 7) (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  check_time "relative delay" 12_000 (Sim.Stime.to_ns !at)

let engine_no_past () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:(us 10) (fun () ->
      Alcotest.check_raises "cannot schedule in the past"
        (Invalid_argument "Engine.schedule: cannot schedule in the past")
        (fun () -> ignore (Sim.Engine.schedule e ~at:(us 1) ignore))));
  Sim.Engine.run e

let engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~at:(us (i * 10)) (fun () -> incr count))
  done;
  Sim.Engine.run e ~until:(us 45);
  Alcotest.(check int) "only events before horizon" 4 !count;
  check_time "clock left at horizon" 45_000 (Sim.Stime.to_ns (Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

let engine_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Sim.Engine.schedule_in e ~delay:(us 1) loop)
  in
  ignore (Sim.Engine.schedule e ~at:(us 1) loop);
  Sim.Engine.run e ~max_events:100;
  Alcotest.(check int) "bounded" 100 !count

let engine_event_cascades () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:(us 10) (fun () ->
         order := "a" :: !order;
         (* same-time event scheduled from within an event still runs *)
         ignore (Sim.Engine.schedule e ~at:(us 10) (fun () -> order := "b" :: !order))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !order)

(* ---- Cpu ------------------------------------------------------------ *)

let cpu_serializes () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let finish = ref [] in
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      finish := ("a", Sim.Engine.now e) :: !finish);
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 5) (fun () ->
      finish := ("b", Sim.Engine.now e) :: !finish);
  Sim.Engine.run e;
  match List.rev !finish with
  | [ ("a", ta); ("b", tb) ] ->
      check_time "a done at 10" 10_000 (Sim.Stime.to_ns ta);
      check_time "b queued behind a" 15_000 (Sim.Stime.to_ns tb)
  | _ -> Alcotest.fail "wrong completion order"

let cpu_priority () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let order = ref [] in
  (* three thread items, then an interrupt arrives while the first runs *)
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t1" :: !order;
      Sim.Cpu.submit cpu Sim.Cpu.Interrupt ~cost:(us 1) (fun () ->
          order := "intr" :: !order));
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t2" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "interrupt goes ahead of queued thread work"
    [ "t1"; "intr"; "t2" ] (List.rev !order)

let cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 30) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 100) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "30% busy over 100us" 0.30 (Sim.Cpu.utilization cpu);
  Sim.Cpu.reset_window cpu;
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 50) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 200) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "window reset" 0.50 (Sim.Cpu.utilization cpu);
  check_time "busy accumulates" 80_000 (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  Alcotest.(check int) "served" 2 (Sim.Cpu.served cpu)

(* Service is non-preemptive: an interrupt that arrives while thread
   work is in service waits for it to finish. *)
let cpu_no_preemption () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let intr_done = ref Sim.Stime.zero in
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 1000) ignore;
  ignore
    (Sim.Engine.schedule e ~at:(us 100) (fun () ->
         Sim.Cpu.submit cpu Sim.Cpu.Interrupt ~cost:(us 10) (fun () ->
             intr_done := Sim.Engine.now e)));
  Sim.Engine.run e;
  Alcotest.(check int) "interrupt waits for the thread slice" 1_010_000
    (Sim.Stime.to_ns !intr_done)

let cpu_queue_depth () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) ignore;
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) ignore;
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) ignore;
  Alcotest.(check int) "two waiting behind one in service" 2
    (Sim.Cpu.queue_depth cpu);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Cpu.queue_depth cpu)

(* ---- Stats ---------------------------------------------------------- *)

let stats_mean_percentile () =
  let m = Sim.Stats.Mean.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Sim.Stats.Mean.us m));
  List.iter (fun x -> Sim.Stats.Mean.add m (us x)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Sim.Stats.Mean.us m);
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (float 1e-9)) "p0" 1. (Sim.Stats.percentile a 0.);
  Alcotest.(check (float 1e-9)) "p50" 3. (Sim.Stats.percentile a 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Sim.Stats.percentile a 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2. (Sim.Stats.percentile a 25.);
  Alcotest.(check (array (float 0.))) "samples left unsorted"
    [| 5.; 1.; 4.; 2.; 3. |] a;
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Sim.Stats.percentile [||] 50.))

let stats_mean_time () =
  let m = Sim.Stats.Mean.create () in
  Sim.Stats.Mean.add m (Sim.Stime.ns 12_345);
  Alcotest.(check (float 1e-9)) "reported in us" 12.345 (Sim.Stats.Mean.us m)

let stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max"
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let v = Sim.Stats.percentile (Array.of_list xs) p in
      v >= List.fold_left Float.min infinity xs -. 1e-9
      && v <= List.fold_left Float.max neg_infinity xs +. 1e-9)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "sim.stime",
      [
        tc "unit conversions" stime_units;
        tc "arithmetic" stime_arith;
        tc "float conversions" stime_of_float;
        tc "pretty printing" stime_pp;
      ] );
    ( "sim.pheap",
      [
        tc "pops in key order" pheap_order;
        tc "stable among equal keys" pheap_stability;
        tc "peek and sizes" pheap_peek_and_sizes;
        prop pheap_qcheck;
      ] );
    ( "sim.rng",
      [
        tc "deterministic from seed" rng_deterministic;
        tc "split gives independent stream" rng_split_independent;
        tc "exponential positive" rng_exponential_positive;
        prop rng_bounds;
        prop rng_float_bounds;
      ] );
    ( "sim.engine",
      [
        tc "events run in time order" engine_ordering;
        tc "cancellation" engine_cancel;
        tc "relative scheduling" engine_schedule_in;
        tc "no scheduling in the past" engine_no_past;
        tc "run until horizon" engine_until;
        tc "max_events bound" engine_max_events;
        tc "same-time cascade" engine_event_cascades;
      ] );
    ( "sim.cpu",
      [
        tc "serializes work" cpu_serializes;
        tc "interrupt priority" cpu_priority;
        tc "utilization accounting" cpu_utilization;
        tc "queue depth" cpu_queue_depth;
        tc "in-service work is not preempted" cpu_no_preemption;
      ] );
    ( "sim.stats",
      [
        tc "mean and percentile" stats_mean_percentile;
        tc "time samples in us" stats_mean_time;
        prop stats_percentile_bounds;
      ] );
  ]

(* ---- re-armable timers and recycled records ------------------------- *)

let engine_timer_rearm () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let h = Sim.Engine.timer e in
  Alcotest.(check int) "an unarmed timer is not pending" 0
    (Sim.Engine.pending e);
  Sim.Engine.arm e h ~at:(us 30) (fun () -> log := 30 :: !log);
  (* re-arming a pending timer moves it, it does not add a second event *)
  Sim.Engine.arm e h ~at:(us 20) (fun () -> log := 20 :: !log);
  Alcotest.(check int) "moved, not duplicated" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  (* ...and a fired one can be armed again *)
  Sim.Engine.arm e h ~at:(us 40) (fun () -> log := 40 :: !log);
  Sim.Engine.run e;
  Sim.Engine.arm e h ~at:(us 50) (fun () -> log := 50 :: !log);
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires at its last arming only" [ 20; 40 ]
    (List.rev !log);
  Alcotest.(check int) "two events ran" 2 (Sim.Engine.events_run e)

let engine_post_order () =
  (* posted events share the wheel's (time, insertion) order with
     scheduled ones, and their recycled records carry no stale thunk *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  Sim.Engine.post e ~at:(us 10) (note "p1");
  ignore (Sim.Engine.schedule e ~at:(us 10) (note "s1"));
  Sim.Engine.post_in e ~delay:(us 5) (fun () ->
      note "p0" ();
      Sim.Engine.post e ~at:(us 10) (note "p2"));
  Sim.Engine.run e;
  Sim.Engine.post e ~at:(us 20) (note "p3");
  Sim.Engine.run e;
  Alcotest.(check (list string)) "time, then insertion order"
    [ "p0"; "p1"; "s1"; "p2"; "p3" ] (List.rev !log)

(* Minor-heap words [f] allocates on its second run, once free lists and
   stashes are warm: the steady-state host cost of the substrate. *)
let words_of f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let noop () = ()
let per n w = w /. float_of_int n

let check_words name ~bound w =
  if w > bound then
    Alcotest.failf "%s: %.2f minor words, bound %.2f" name w bound

let engine_event_words () =
  let e = Sim.Engine.create () in
  let n = 1000 in
  (* deadlines spread over several wheel levels, so cascades are counted *)
  let posted =
    words_of (fun () ->
        for i = 1 to n do
          Sim.Engine.post_in e ~delay:(Sim.Stime.ns (i * 37)) noop
        done;
        Sim.Engine.run e)
  in
  check_words "posted event" ~bound:0.1 (per n posted);
  let scheduled =
    words_of (fun () ->
        for i = 1 to n do
          ignore (Sim.Engine.schedule_in e ~delay:(Sim.Stime.ns (i * 37)) noop)
        done;
        Sim.Engine.run e)
  in
  (* a handle is an int: index and generation *)
  check_words "scheduled event" ~bound:0.1 (per n scheduled);
  let h = Sim.Engine.timer e in
  let armed =
    words_of (fun () ->
        for i = 1 to n do
          Sim.Engine.arm e h
            ~at:(Sim.Stime.add (Sim.Engine.now e) (Sim.Stime.ns (i * 37)))
            noop;
          Sim.Engine.run e
        done)
  in
  check_words "armed event" ~bound:0.1 (per n armed);
  (* one event at a time, 1 s ahead: each pops alone from a high level *)
  let lone =
    words_of (fun () ->
        for _ = 1 to n do
          Sim.Engine.post_in e ~delay:(Sim.Stime.s 1) noop;
          Sim.Engine.run e
        done)
  in
  check_words "lone far event" ~bound:0.1 (per n lone);
  let until =
    words_of (fun () ->
        for i = 1 to n do
          Sim.Engine.post_in e ~delay:(Sim.Stime.ns i) noop;
          Sim.Engine.run e ~until:(Sim.Engine.now e)
        done;
        Sim.Engine.run e)
  in
  (* two words per call: the [Some] the caller boxes [~until] in *)
  check_words "run ~until look-ahead" ~bound:2.1 (per n until)

let stale_handle_cancels_nothing () =
  (* a handle outlives its event: once the entry has fired (or been
     cancelled) and been reused, cancelling the old handle is a no-op *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  let h1 = Sim.Engine.schedule e ~at:(us 10) (note 1) in
  Sim.Engine.run e;
  let h2 = Sim.Engine.schedule e ~at:(us 20) (note 2) in
  Sim.Engine.cancel e h1;
  Sim.Engine.cancel e h2;
  let _h3 = Sim.Engine.schedule e ~at:(us 30) (note 3) in
  Sim.Engine.cancel e h1;
  Sim.Engine.cancel e h2;
  Alcotest.(check int) "the new event is still pending" 1
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fired and uncancelled events ran" [ 1; 3 ]
    (List.rev !log);
  Alcotest.check_raises "arm takes timer handles only"
    (Invalid_argument "Timer_wheel.arm: not a timer handle") (fun () ->
      Sim.Engine.arm e h1 ~at:(us 40) noop)

(* Schedule->cancel and schedule->fire cycles, plus CPU items, in bursts
   no larger than the first: the wheel's arrays and the CPU pool reach
   their peak in the first burst and never grow again, so recycled
   entries are really reused. *)
let pools_stop_growing () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let burst = 512 in
  let cycles = ref 0 in
  let round size =
    let hs =
      Array.init size (fun i ->
          Sim.Engine.schedule_in e ~delay:(Sim.Stime.ns (1 + (i * 97))) noop)
    in
    Array.iteri (fun i h -> if i land 1 = 0 then Sim.Engine.cancel e h) hs;
    for i = 1 to size do
      Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(Sim.Stime.ns i) noop
    done;
    Sim.Engine.run e;
    cycles := !cycles + size
  in
  round burst;
  let wheel = Sim.Engine.capacity e and pool = Sim.Cpu.capacity cpu in
  Alcotest.(check bool) "wheel sized to its peak" true (wheel <= 4 * burst);
  Alcotest.(check bool) "pool sized to its peak" true (pool <= 4 * burst);
  let r = ref 1 in
  while !cycles < 100_000 do
    round (1 + (!r * 7919 mod burst));
    incr r;
    if Sim.Engine.capacity e <> wheel || Sim.Cpu.capacity cpu <> pool then
      Alcotest.failf "grew past the peak after %d cycles: wheel %d -> %d, \
                      pool %d -> %d" !cycles wheel (Sim.Engine.capacity e)
        pool (Sim.Cpu.capacity cpu)
  done;
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let cpu_item_words () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let n = 1000 in
  let w =
    words_of (fun () ->
        for i = 1 to n do
          let prio = if i mod 3 = 0 then Sim.Cpu.Interrupt else Sim.Cpu.Thread in
          Sim.Cpu.submit cpu prio ~cost:(Sim.Stime.ns (10 * (i mod 7))) noop
        done;
        Sim.Engine.run e)
  in
  check_words "queued cpu item" ~bound:0.1 (per n w);
  Alcotest.(check int) "every item served" (2 * n) (Sim.Cpu.served cpu)

(* ---- run-to-completion CPU service ---------------------------------- *)

(* A random workload on two CPUs sharing one engine.  Every event and
   every work-item completion logs (time, id), then may submit work at
   either priority, charge a CPU inline or post an engine event.  Costs
   and delays are 0-3 units of 250 ns, so events often fall exactly on
   completion instants.  The workload draws its decisions from its own
   stream as it runs, so two runs that fire the same events in the same
   order build the same workload, and any divergence shows in the
   log. *)
type world = {
  engine : Sim.Engine.t;
  cpus : Sim.Cpu.t array;
  rand : Random.State.t;
  mutable ids : int;
  mutable budget : int;
  mutable log : (int * int) list;
}

let rec act w id () =
  w.log <- (Sim.Stime.to_ns (Sim.Engine.now w.engine), id) :: w.log;
  for _ = 1 to Random.State.int w.rand 4 do
    if w.budget > 0 then begin
      w.budget <- w.budget - 1;
      let id = w.ids in
      w.ids <- id + 1;
      let cpu = w.cpus.(Random.State.int w.rand 2) in
      let span = Sim.Stime.ns (250 * Random.State.int w.rand 4) in
      match Random.State.int w.rand 6 with
      | 0 | 1 -> Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:span (act w id)
      | 2 -> Sim.Cpu.submit cpu Sim.Cpu.Interrupt ~cost:span (act w id)
      | 3 -> Sim.Cpu.charge cpu ~cost:span
      | _ -> Sim.Engine.post_in w.engine ~delay:span (act w id)
    end
  done

let world seed =
  let engine = Sim.Engine.create () in
  let rand = Random.State.make [| seed |] in
  let cpus = Array.init 2 (fun i -> Sim.Cpu.create engine ~name:(string_of_int i)) in
  let w = { engine; cpus; rand; ids = 0; budget = 300; log = [] } in
  for _ = 0 to Random.State.int rand 4 do
    let id = w.ids in
    w.ids <- id + 1;
    Sim.Engine.post w.engine ~at:(Sim.Stime.ns (250 * Random.State.int rand 8)) (act w id)
  done;
  w

(* [Engine.run] — whole, in [until] slices or in [max_events] slices,
   each of which must run exactly its budget unless the queue empties —
   fires what a loop of [Engine.step] fires: the same (time, id) log, the
   same event count and the same CPU accounts. *)
let run_matches_step (seed, mode) =
  let by_step = world seed and by_run = world seed in
  while Sim.Engine.step by_step.engine do () done;
  let e = by_run.engine in
  let slices = Random.State.make [| seed; mode |] in
  let exact = ref true in
  (match mode with
  | 0 -> Sim.Engine.run e
  | 1 ->
      let limit = ref 0 in
      while Sim.Engine.pending e > 0 do
        limit := !limit + (250 * Random.State.int slices 6);
        Sim.Engine.run e ~until:(Sim.Stime.ns !limit)
      done
  | _ ->
      while Sim.Engine.pending e > 0 do
        let k = Random.State.int slices 5 and n0 = Sim.Engine.events_run e in
        Sim.Engine.run e ~max_events:k;
        if Sim.Engine.events_run e - n0 <> k && Sim.Engine.pending e > 0 then
          exact := false
      done);
  let accounts w =
    Array.map (fun c -> (Sim.Cpu.served c, Sim.Stime.to_ns (Sim.Cpu.busy_time c))) w.cpus
  in
  let events w = Sim.Engine.events_run w.engine in
  !exact
  && by_run.log = by_step.log
  && events by_run = events by_step
  && accounts by_run = accounts by_step
  && Sim.Engine.popped by_step.engine = events by_step
  && Sim.Engine.popped e <= events by_run

let run_step_oracle =
  QCheck.Test.make ~count:500
    ~name:"run fires what a loop of step fires, elided completions and all"
    QCheck.(pair int (int_bound 2))
    run_matches_step

(* [n] 10 us items queued at once on an idle CPU; each completion logs
   its number and instant. *)
let queued_items n =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let log = ref [] in
  let note x () = log := (x, Sim.Stime.to_ns (Sim.Engine.now e)) :: !log in
  for i = 1 to n do
    Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) (note (string_of_int i))
  done;
  (e, cpu, log, note)

let log_t = Alcotest.(list (pair string int))

(* An event queued at the instant a completion falls due runs first, as
   without elision: the tie sends that completion through the wheel. *)
let elide_tie () =
  let e, _, log, note = queued_items 3 in
  Sim.Engine.post e ~at:(us 20) (note "ev");
  Sim.Engine.run e;
  Alcotest.check log_t "queued event first on a tie"
    [ ("1", 10_000); ("ev", 20_000); ("2", 20_000); ("3", 30_000) ]
    (List.rev !log);
  Alcotest.(check int) "every event counted" 4 (Sim.Engine.events_run e);
  Alcotest.(check int) "only the last completion elided" 3 (Sim.Engine.popped e)

(* An elided completion never takes the clock past [until]; one due at
   [until] exactly still runs. *)
let elide_until () =
  let e, cpu, log, _ = queued_items 4 in
  Sim.Engine.run e ~until:(us 25);
  Alcotest.check log_t "items due by 25 us" [ ("1", 10_000); ("2", 20_000) ]
    (List.rev !log);
  check_time "clock left at until" 25_000 (Sim.Stime.to_ns (Sim.Engine.now e));
  Alcotest.(check int) "third item still in service" 2 (Sim.Cpu.served cpu);
  Sim.Engine.run e ~until:(us 40);
  Alcotest.check log_t "due at until runs"
    [ ("1", 10_000); ("2", 20_000); ("3", 30_000); ("4", 40_000) ]
    (List.rev !log);
  Alcotest.(check int) "two popped, two elided" 2 (Sim.Engine.popped e)

(* [max_events] counts elided completions: each slice runs exactly its
   budget. *)
let elide_max_events () =
  let e, cpu, _, _ = queued_items 10 in
  let slice k served =
    Sim.Engine.run e ~max_events:k;
    Alcotest.(check int) (Printf.sprintf "served after %d more" k) served
      (Sim.Cpu.served cpu);
    Alcotest.(check int) "events = items" served (Sim.Engine.events_run e)
  in
  slice 3 3;
  check_time "clock at the third completion" 30_000
    (Sim.Stime.to_ns (Sim.Engine.now e));
  Alcotest.(check int) "one popped, two elided" 1 (Sim.Engine.popped e);
  slice 0 3;
  slice 4 7;
  slice max_int 10

(* A bare [step] runs one event and elides nothing. *)
let step_does_not_elide () =
  let e, cpu, _, _ = queued_items 3 in
  Alcotest.(check bool) "stepped" true (Sim.Engine.step e);
  Alcotest.(check bool) "stepped" true (Sim.Engine.step e);
  Alcotest.(check int) "one item per step" 2 (Sim.Cpu.served cpu);
  Alcotest.(check int) "both popped" 2 (Sim.Engine.popped e)

(* Wheel traffic of a UDP echo round trip over a Plexus pair, as the
   fig5/micro ping-pong drives it.  Elision does not change the event
   count per round trip (26 with elision off, too); most of those events
   are CPU completions the engine would pop next anyway, finished in
   place, so at most 30% of them go through the wheel. *)
let pingpong_wheel_traffic () =
  let module C = Experiments.Common in
  let p = C.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.C.a and udp_b = Plexus.Stack.udp p.C.b in
  let bind udp ~owner ~port =
    match Plexus.Udp_mgr.bind udp ~owner ~port with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let server = bind udp_b ~owner:"echo-server" ~port:7 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        let data = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port) data)
  in
  let client = bind udp_a ~owner:"echo-client" ~port:5001 in
  let iters = 100 in
  let loop = C.Pingpong.create ~warmup:0 ~iters p.C.engine in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_a client (fun _ -> C.Pingpong.pong loop)
  in
  let e0 = Sim.Engine.events_run p.C.engine and p0 = Sim.Engine.popped p.C.engine in
  C.Pingpong.start loop (fun () ->
      Plexus.Udp_mgr.send udp_a client ~dst:(C.ip_b, 7) "xxxxxxxx");
  Sim.Engine.run p.C.engine;
  let events = Sim.Engine.events_run p.C.engine - e0 in
  let popped = Sim.Engine.popped p.C.engine - p0 in
  Alcotest.(check int) "engine events per round trip" 26 (events / iters);
  Alcotest.(check int) "a whole number of events per round trip" 0 (events mod iters);
  if popped * 10 > events * 3 then
    Alcotest.failf "%d of %d events went through the wheel (bound 30%%)" popped
      events

let suite =
  suite
  @ [
      ( "sim.run_to_completion",
        [
          prop run_step_oracle;
          tc "a queued event wins a tie" elide_tie;
          tc "never past until" elide_until;
          tc "max_events counts elided events" elide_max_events;
          tc "step elides nothing" step_does_not_elide;
          tc "udp round trip: wheel pops <= 30% of events" pingpong_wheel_traffic;
        ] );
      ( "sim.records",
        [
          tc "timer re-arm, move and cancel" engine_timer_rearm;
          tc "posted events keep wheel order" engine_post_order;
          tc "engine events allocate nothing" engine_event_words;
          tc "stale handles cancel nothing" stale_handle_cancels_nothing;
          tc "pools stop growing at their peak" pools_stop_growing;
          tc "cpu items allocate nothing" cpu_item_words;
        ] );
    ]
