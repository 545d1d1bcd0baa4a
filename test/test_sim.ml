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
  let h = Sim.Pheap.create () in
  List.iter (fun k -> Sim.Pheap.add h ~key:k k) [ 5; 1; 9; 3; 7 ];
  let popped = List.init 5 (fun _ ->
      match Sim.Pheap.pop_min h with Some (k, _) -> k | None -> -1)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] popped

let pheap_stability () =
  let h = Sim.Pheap.create () in
  List.iteri (fun i v -> Sim.Pheap.add h ~key:7 (i, v)) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ ->
      match Sim.Pheap.pop_min h with Some (_, (_, v)) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "a"; "b"; "c" ] popped

let pheap_peek_and_sizes () =
  let h = Sim.Pheap.create () in
  Alcotest.(check bool) "empty" true (Sim.Pheap.is_empty h);
  Alcotest.(check (option (pair int int))) "peek empty" None (Sim.Pheap.peek_min h);
  Sim.Pheap.add h ~key:4 42;
  Sim.Pheap.add h ~key:2 24;
  Alcotest.(check int) "size" 2 (Sim.Pheap.size h);
  Alcotest.(check (option (pair int int))) "peek" (Some (2, 24)) (Sim.Pheap.peek_min h);
  Alcotest.(check int) "peek preserves" 2 (Sim.Pheap.size h);
  Sim.Pheap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Pheap.is_empty h)

let pheap_qcheck =
  QCheck.Test.make ~name:"pheap pops in sorted order"
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Sim.Pheap.create () in
      List.iter (fun k -> Sim.Pheap.add h ~key:k k) keys;
      let rec drain acc =
        match Sim.Pheap.pop_min h with
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
  Sim.Cpu.run cpu ~cost:(us 10) (fun () ->
      finish := ("a", Sim.Engine.now e) :: !finish);
  Sim.Cpu.run cpu ~cost:(us 5) (fun () ->
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
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t1" :: !order;
      Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 1) (fun () ->
          order := "intr" :: !order));
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t2" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "interrupt preempts queued thread work"
    [ "t1"; "intr"; "t2" ] (List.rev !order)

let cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.run cpu ~cost:(us 30) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 100) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "30% busy over 100us" 0.30 (Sim.Cpu.utilization cpu);
  Sim.Cpu.reset_window cpu;
  Sim.Cpu.run cpu ~cost:(us 50) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 200) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "window reset" 0.50 (Sim.Cpu.utilization cpu);
  check_time "busy accumulates" 80_000 (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  Alcotest.(check int) "served" 2 (Sim.Cpu.served cpu)

let cpu_queue_depth () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Alcotest.(check int) "two waiting behind one in service" 2
    (Sim.Cpu.queue_depth cpu);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Cpu.queue_depth cpu)

(* ---- Stats ---------------------------------------------------------- *)

let stats_counter () =
  let c = Sim.Stats.Counter.create () in
  Sim.Stats.Counter.incr c;
  Sim.Stats.Counter.add c 4;
  Alcotest.(check int) "count" 5 (Sim.Stats.Counter.get c);
  Sim.Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Sim.Stats.Counter.get c)

let stats_series () =
  let s = Sim.Stats.Series.create () in
  List.iter (Sim.Stats.Series.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Sim.Stats.Series.mean s);
  Alcotest.(check (float 1e-9)) "median" 3. (Sim.Stats.Series.median s);
  Alcotest.(check (float 1e-9)) "min" 1. (Sim.Stats.Series.minimum s);
  Alcotest.(check (float 1e-9)) "max" 5. (Sim.Stats.Series.maximum s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Sim.Stats.Series.stddev s);
  Alcotest.(check (float 1e-9)) "p0" 1. (Sim.Stats.Series.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Sim.Stats.Series.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2. (Sim.Stats.Series.percentile s 25.)

let stats_series_time () =
  let s = Sim.Stats.Series.create () in
  Sim.Stats.Series.add_time s (us 12);
  Alcotest.(check (float 1e-9)) "stored as us" 12. (Sim.Stats.Series.mean s)

let stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max"
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let s = Sim.Stats.Series.create () in
      List.iter (Sim.Stats.Series.add s) xs;
      let v = Sim.Stats.Series.percentile s p in
      v >= Sim.Stats.Series.minimum s -. 1e-9
      && v <= Sim.Stats.Series.maximum s +. 1e-9)

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
      ] );
    ( "sim.stats",
      [
        tc "counter" stats_counter;
        tc "series summary" stats_series;
        tc "time samples in us" stats_series_time;
        prop stats_percentile_bounds;
      ] );
  ]

(* ---- preemptive interrupt service (opt-in) ---------------------------- *)

let cpu_preemption_latency () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.set_preemptive cpu true;
  let intr_done = ref Sim.Stime.zero and thread_done = ref Sim.Stime.zero in
  (* a long thread computation in service... *)
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 1000) (fun () ->
      thread_done := Sim.Engine.now e);
  (* ...and an interrupt arriving 100us in *)
  ignore
    (Sim.Engine.schedule e ~at:(us 100) (fun () ->
         Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 10) (fun () ->
             intr_done := Sim.Engine.now e)));
  Sim.Engine.run e;
  Alcotest.(check int) "interrupt served immediately" 110_000
    (Sim.Stime.to_ns !intr_done);
  Alcotest.(check int) "thread work finishes late by the interrupt time"
    1_010_000
    (Sim.Stime.to_ns !thread_done);
  Alcotest.(check int) "total busy time conserved" 1_010_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

let cpu_no_preemption_by_default () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let intr_done = ref Sim.Stime.zero in
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 1000) ignore;
  ignore
    (Sim.Engine.schedule e ~at:(us 100) (fun () ->
         Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 10) (fun () ->
             intr_done := Sim.Engine.now e)));
  Sim.Engine.run e;
  Alcotest.(check int) "interrupt waits for the thread slice" 1_010_000
    (Sim.Stime.to_ns !intr_done)

let cpu_repeated_preemption () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.set_preemptive cpu true;
  let thread_done = ref Sim.Stime.zero in
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 300) (fun () ->
      thread_done := Sim.Engine.now e);
  (* three interrupts, each cutting in *)
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule e ~at:(us at) (fun () ->
             Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 50) ignore)))
    [ 50; 150; 250 ];
  Sim.Engine.run e;
  (* 300us of thread work + 150us of interrupts *)
  Alcotest.(check int) "thread completes after all slices" 450_000
    (Sim.Stime.to_ns !thread_done);
  Alcotest.(check int) "busy conserved" 450_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

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
  Sim.Cpu.set_preemptive cpu true;
  let w =
    words_of (fun () ->
        for _ = 1 to n do
          Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 10) noop;
          Sim.Cpu.submit cpu Sim.Cpu.Interrupt ~cost:(us 1) noop
        done;
        Sim.Engine.run e)
  in
  check_words "preempted cpu item" ~bound:0.1 (per (2 * n) w);
  Alcotest.(check int) "every item served" (6 * n) (Sim.Cpu.served cpu)

let suite =
  suite
  @ [
      ( "sim.cpu_preemption",
        [
          tc "interrupt preempts thread work" cpu_preemption_latency;
          tc "off by default" cpu_no_preemption_by_default;
          tc "repeated preemption conserves work" cpu_repeated_preemption;
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
