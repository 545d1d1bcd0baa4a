(* Million-flow steady-state structures: the hierarchical timer wheel
   (equivalence with the Pheap oracle, true cancellation), the flow-path
   CLOCK cache, and ephemeral port allocation. *)

let us = Sim.Stime.us

(* ---- timer wheel ----------------------------------------------------- *)

(* Oracle equivalence: the wheel must fire in exactly the (key, seq)
   order of the stable binary heap, under arbitrary interleavings of
   schedule, cancel, look-ahead and pop (a reschedule is a cancel +
   schedule).  A look-ahead must agree with the heap and leave the
   horizon where the last pop put it.  Cancelling a stale handle — one
   whose entry has fired or been cancelled, and is likely reused by a
   later add — must cancel nothing. *)
type op =
  | Add of int
  | Far of int * int (* level, random bits: a delay within that level *)
  | Tie of int (* at the key of the i-th most recent live entry *)
  | Cancel of int
  | Stale of int
  | Peek
  | Pop

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Add d) (int_bound 5000));
        (2, map (fun i -> Cancel i) (int_bound 500));
        (2, map (fun i -> Stale i) (int_bound 50));
        (2, return Peek);
        (3, return Pop);
      ])

(* Sparse wheels: rounds of 1-3 live keys spread over all 13 levels (up
   to [max_int]), so most pops find the minimum alone in a high-level
   bucket.  Ties at live keys, cancels (of the lone entry too) and
   look-ahead peeks fall between the pops; a tie only follows a pop, so
   at most 3 keys are ever live. *)
let sparse_gen =
  QCheck.Gen.(
    let far = map2 (fun l r -> Far (l, r)) (int_bound 12) int in
    (* [g] with probability [pct]%, as a list of zero or one ops *)
    let maybe pct g =
      int_bound 99 >>= fun x -> if x < pct then map (fun o -> [ o ]) g else return []
    in
    let step =
      map4
        (fun peek cancel tie peek2 -> peek @ cancel @ (Pop :: tie) @ peek2)
        (maybe 50 (return Peek))
        (maybe 30 (map (fun i -> Cancel i) (int_bound 2)))
        (maybe 40 (map (fun i -> Tie i) (int_bound 2)))
        (maybe 30 (return Peek))
    in
    let round =
      map3
        (fun first more steps ->
          (first :: more) @ List.concat steps @ [ Pop; Pop; Pop ])
        far
        (list_size (0 -- 2)
           (frequency [ (3, far); (1, map (fun i -> Tie i) (int_bound 2)) ]))
        (list_size (1 -- 4) step)
    in
    map List.concat (list_size (1 -- 12) round))

let op_print = function
  | Add d -> Printf.sprintf "Add %d" d
  | Far (l, r) -> Printf.sprintf "Far (%d, %d)" l r
  | Tie i -> Printf.sprintf "Tie %d" i
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Stale i -> Printf.sprintf "Stale %d" i
  | Peek -> "Peek"
  | Pop -> "Pop"

let print_ops l = String.concat "; " (List.map op_print l)

let wheel_matches_pheap ops =
  let wheel = Sim.Timer_wheel.create ~dummy:(-1) () in
  let heap = Pheap.create () in
  (* mirror entries: wheel node + a cancelled flag read at heap pop *)
  let nodes = ref [] (* (id, key, node) newest first *) in
  let cancelled = Hashtbl.create 16 in
  let next_id = ref 0 in
  let ok = ref true in
  let rec heap_pop () =
    match Pheap.pop_min heap with
    | None -> None
    | Some (k, id) ->
        if Hashtbl.mem cancelled id then heap_pop () else Some (k, id)
  in
  let rec heap_peek () =
    match Pheap.peek_min heap with
    | Some (_, id) when Hashtbl.mem cancelled id ->
        ignore (Pheap.pop_min heap);
        heap_peek ()
    | p -> p
  in
  let add key =
    let id = !next_id in
    incr next_id;
    let n = Sim.Timer_wheel.add wheel ~key id in
    nodes := (id, key, n) :: !nodes;
    Pheap.add heap ~key id
  in
  let nth_live i =
    List.filteri (fun j _ -> j = i)
      (List.filter (fun (_, _, n) -> Sim.Timer_wheel.is_live wheel n) !nodes)
  in
  List.iter
    (fun op ->
      match op with
      | Add d -> add (Sim.Timer_wheel.horizon wheel + d)
      | Far (l, r) ->
          (* a delay of at most 5 (l+1) random bits, so the key lands
             near level l; clamped to keep it <= [max_int] *)
          let d = (r land max_int) lsr Int.max 0 (62 - (5 * (l + 1))) in
          let h = Sim.Timer_wheel.horizon wheel in
          add (h + Int.min d (max_int - h))
      | Tie i -> (
          match nth_live i with [ (_, key, _) ] -> add key | _ -> ())
      | Cancel i -> (
          (* cancel the i-th most recent still-live entry, if any *)
          match nth_live i with
          | [ (id, _, n) ] ->
              Sim.Timer_wheel.cancel wheel n;
              Sim.Timer_wheel.cancel wheel n (* idempotent *)
              ;
              Hashtbl.replace cancelled id ()
          | _ -> ())
      | Stale i -> (
          (* the i-th most recent dead handle: the heap is left alone *)
          match
            List.filteri (fun j _ -> j = i)
              (List.filter
                 (fun (_, _, n) -> not (Sim.Timer_wheel.is_live wheel n))
                 !nodes)
          with
          | [ (_, _, n) ] -> Sim.Timer_wheel.cancel wheel n
          | _ -> ())
      | Peek ->
          let h0 = Sim.Timer_wheel.horizon wheel in
          let w = Sim.Timer_wheel.peek_min wheel in
          let m = Sim.Timer_wheel.min_key wheel in
          if w <> heap_peek () then ok := false;
          (match w with
          | Some (k, _) -> if m <> k then ok := false
          | None -> if m <> max_int then ok := false);
          if Sim.Timer_wheel.horizon wheel <> h0 then ok := false
      | Pop ->
          let w = Sim.Timer_wheel.pop_min wheel in
          let h = heap_pop () in
          if w <> h then ok := false)
    ops;
  (* drain both: remainders must agree too *)
  let rec drain () =
    match (Sim.Timer_wheel.pop_min wheel, heap_pop ()) with
    | None, None -> ()
    | w, h ->
        if w <> h then ok := false
        else drain ()
  in
  drain ();
  !ok && Sim.Timer_wheel.is_empty wheel

let wheel_oracle_qcheck =
  QCheck.Test.make ~count:300 ~name:"timer wheel fires in pheap order"
    QCheck.(make ~print:print_ops Gen.(list_size (0 -- 200) op_gen))
    wheel_matches_pheap

let wheel_sparse_qcheck =
  QCheck.Test.make ~count:300
    ~name:"sparse wheel across all levels fires in pheap order"
    QCheck.(make ~print:print_ops sparse_gen)
    wheel_matches_pheap

(* A lone far entry pops where it sits, at its exact key; entries added
   at that key after a look-ahead, and after the pop, queue behind it. *)
let wheel_lone_entry_pop () =
  let w = Sim.Timer_wheel.create ~dummy:"" () in
  let s1 = 1_000_000_000 in
  ignore (Sim.Timer_wheel.add w ~key:s1 "a" : Sim.Timer_wheel.handle);
  Alcotest.(check int) "look-ahead sees it" s1 (Sim.Timer_wheel.min_key w);
  Alcotest.(check int) "look-ahead leaves the horizon" 0
    (Sim.Timer_wheel.horizon w);
  ignore (Sim.Timer_wheel.add w ~key:s1 "b" : Sim.Timer_wheel.handle);
  Alcotest.(check (option (pair int string))) "first added pops first"
    (Some (s1, "a")) (Sim.Timer_wheel.pop_min w);
  ignore (Sim.Timer_wheel.add w ~key:s1 "c" : Sim.Timer_wheel.handle);
  ignore (Sim.Timer_wheel.add w ~key:s1 "d" : Sim.Timer_wheel.handle);
  let rest = List.init 3 (fun _ -> Sim.Timer_wheel.pop_min w) in
  Alcotest.(check (list (option (pair int string)))) "ties in FIFO order"
    [ Some (s1, "b"); Some (s1, "c"); Some (s1, "d") ] rest;
  (* the same through the engine: an event 1 s ahead, alone, whose
     handler schedules ties at its own instant *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note x () = log := (x, Sim.Stime.to_ns (Sim.Engine.now e)) :: !log in
  ignore
    (Sim.Engine.schedule e ~at:(Sim.Stime.s 1) (fun () ->
         note "a" ();
         Sim.Engine.post e ~at:(Sim.Engine.now e) (note "b");
         Sim.Engine.post e ~at:(Sim.Engine.now e) (note "c"))
      : Sim.Engine.handle);
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int))) "fires at 1 s, ties in order"
    [ ("a", s1); ("b", s1); ("c", s1) ] (List.rev !log)

let wheel_long_range () =
  (* deadlines spread over many wheel levels, popped in order *)
  let w = Sim.Timer_wheel.create ~dummy:0 () in
  let keys =
    [ 1; 31; 32; 33; 1_000; 32_768; 1_000_000; 123_456_789;
      1_000_000_000_000; 4611686018427387903 (* max_int/2: level 12 *) ]
  in
  List.iter (fun k -> ignore (Sim.Timer_wheel.add w ~key:k k)) keys;
  let popped = ref [] in
  let rec go () =
    match Sim.Timer_wheel.pop_min w with
    | None -> ()
    | Some (k, _) ->
        popped := k :: !popped;
        go ()
  in
  go ();
  Alcotest.(check (list int)) "sorted across levels" (List.sort compare keys)
    (List.rev !popped);
  (* two keys sharing a top-level bucket, reached from a horizon whose top
     digit differs: the cascade must start from the bucket's own window *)
  let w = Sim.Timer_wheel.create ~dummy:0 () in
  ignore (Sim.Timer_wheel.add w ~key:(1 lsl 60) 0 : Sim.Timer_wheel.handle);
  ignore (Sim.Timer_wheel.pop w : int);
  ignore (Sim.Timer_wheel.add w ~key:((1 lsl 61) + 7) 1 : Sim.Timer_wheel.handle);
  ignore (Sim.Timer_wheel.add w ~key:((1 lsl 61) + 5) 2 : Sim.Timer_wheel.handle);
  let a = Sim.Timer_wheel.pop_min w in
  let b = Sim.Timer_wheel.pop_min w in
  Alcotest.(check (list (option (pair int int)))) "top-level cascade"
    [ Some ((1 lsl 61) + 5, 2); Some ((1 lsl 61) + 7, 1) ] [ a; b ]

let wheel_mass_cancel () =
  (* 100k pending, mass-cancel, wheel must be observably empty *)
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 100_000 (fun i ->
        Sim.Engine.schedule e ~at:(us (1 + (i mod 997))) (fun () -> incr fired))
  in
  Alcotest.(check int) "100k pending" 100_000 (Sim.Engine.pending e);
  List.iter (Sim.Engine.cancel e) handles;
  Alcotest.(check int) "pending reports only live events" 0
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "nothing fires" 0 !fired;
  Alcotest.(check int) "no events counted" 0 (Sim.Engine.events_run e)

let wheel_cancel_drops_thunk () =
  (* a cancelled event's closure is released eagerly: the weak pointer
     to its environment dies before the deadline is reached *)
  let e = Sim.Engine.create () in
  let payload = ref (Some (String.make 1024 'x')) in
  let wp = Weak.create 1 in
  (match !payload with Some s -> Weak.set wp 0 (Some s) | None -> ());
  let h =
    Sim.Engine.schedule e ~at:(us 1000) (fun () ->
        match !payload with Some s -> ignore (String.length s) | None -> ())
  in
  payload := None;
  Sim.Engine.cancel e h;
  Gc.full_major ();
  Alcotest.(check bool) "closure environment collected" false
    (Weak.check wp 0);
  Sim.Engine.run e

let wheel_pop_drops_thunk () =
  (* a fired event's closure is released as soon as it has run: its
     recycled entry keeps no pointer to it *)
  let e = Sim.Engine.create () in
  let wp = Weak.create 1 in
  let arm () =
    let s = String.make 1024 'x' in
    Weak.set wp 0 (Some s);
    ignore
      (Sim.Engine.schedule e ~at:(us 10) (fun () -> ignore (String.length s))
        : Sim.Engine.handle)
  in
  arm ();
  Sim.Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "closure environment collected" false
    (Weak.check wp 0)

let cpu_reused_slot_drops_continuation () =
  (* a finished item's continuation stays in its free slot until the
     slot is reused (the pool writes a slot only when its continuation
     changes); reuse releases it *)
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let wp = Weak.create 1 in
  let submit () =
    let s = String.make 1024 'x' in
    Weak.set wp 0 (Some s);
    Sim.Cpu.run cpu ~cost:(us 1) (fun () -> ignore (String.length s))
  in
  submit ();
  Sim.Engine.run e;
  Sim.Cpu.run cpu ~cost:(us 1) ignore;
  Sim.Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "continuation environment collected" false
    (Weak.check wp 0)

let timer_rearm_drops_thunk () =
  (* a timer keeps its thunk across a pop until it is armed again; the
     next arm with another thunk releases it *)
  let e = Sim.Engine.create () in
  let h = Sim.Engine.timer e in
  let wp = Weak.create 1 in
  let arm () =
    let s = String.make 1024 'x' in
    Weak.set wp 0 (Some s);
    Sim.Engine.arm e h ~at:(us 10) (fun () -> ignore (String.length s))
  in
  arm ();
  Sim.Engine.run e;
  Sim.Engine.arm e h ~at:(us 20) ignore;
  Sim.Engine.cancel e h;
  Gc.full_major ();
  Alcotest.(check bool) "closure environment collected" false
    (Weak.check wp 0)

let engine_behind_horizon () =
  (* run ~until peeks past the horizon; a later schedule between the
     horizon and the next pending event must still fire, in order *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:(us 100) (fun () -> log := 100 :: !log));
  Sim.Engine.run e ~until:(us 50);
  (* the wheel's horizon has advanced to 100us; schedule inside (50,100) *)
  ignore (Sim.Engine.schedule e ~at:(us 60) (fun () -> log := 60 :: !log));
  ignore (Sim.Engine.schedule e ~at:(us 80) (fun () -> log := 80 :: !log));
  Alcotest.(check int) "three pending" 3 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order preserved" [ 60; 80; 100 ]
    (List.rev !log)

(* ---- clock cache ------------------------------------------------------ *)

(* Cache probe for these tests: every stored value is >= 0, so -1 reads
   as "no entry". *)
let cache_find c k = Spin.Clock_cache.find_or c k (-1)

let cache_eviction () =
  let ev = ref 0 in
  let c = Spin.Clock_cache.create ~capacity:8 ~evictions:ev () in
  Alcotest.(check int) "capacity" 8 (Spin.Clock_cache.capacity c);
  for i = 0 to 7 do
    Spin.Clock_cache.put c (string_of_int i) i
  done;
  Alcotest.(check int) "full" 8 (Spin.Clock_cache.length c);
  Alcotest.(check int) "no eviction below capacity" 0 !ev;
  (* keep "0" hot so CLOCK passes over it *)
  Alcotest.(check int) "hit" 0 (cache_find c "0");
  Spin.Clock_cache.put c "8" 8;
  Alcotest.(check int) "bounded" 8 (Spin.Clock_cache.length c);
  Alcotest.(check int) "one eviction" 1 !ev;
  Alcotest.(check int) "new entry present" 8 (cache_find c "8");
  Spin.Clock_cache.remove c "8";
  Alcotest.(check int) "remove" (-1) (cache_find c "8");
  Spin.Clock_cache.put c "9" 9;
  Alcotest.(check int) "hole reused, no eviction" 1 !ev

let cache_clock_keeps_hot () =
  let c = Spin.Clock_cache.create ~capacity:8 () in
  for i = 0 to 7 do
    Spin.Clock_cache.put c (string_of_int i) i
  done;
  (* first overflow sweeps every reference bit clear and evicts one *)
  Spin.Clock_cache.put c "8" 8;
  Alcotest.(check int) "one eviction so far" 1
    (Spin.Clock_cache.evictions c);
  (* re-reference every survivor except "2": the next insert must pass
     over the hot entries and claim the cold one *)
  List.iter
    (fun k -> ignore (cache_find c k : int))
    [ "1"; "3"; "4"; "5"; "6"; "7"; "8" ];
  Spin.Clock_cache.put c "9" 9;
  Alcotest.(check int) "cold entry evicted" (-1) (cache_find c "2");
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " survives") true
        (cache_find c k >= 0))
    [ "1"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]

let cache_grows () =
  let c = Spin.Clock_cache.create ~capacity:1024 () in
  for i = 0 to 999 do
    Spin.Clock_cache.put c (string_of_int i) i
  done;
  Alcotest.(check int) "grew without eviction" 1000
    (Spin.Clock_cache.length c);
  Alcotest.(check int) "no evictions" 0 (Spin.Clock_cache.evictions c);
  for i = 0 to 999 do
    Alcotest.(check bool) "still present" true
      (cache_find c (string_of_int i) >= 0)
  done

(* ---- rng ------------------------------------------------------------- *)

let pareto_support =
  QCheck.Test.make ~name:"pareto stays on [scale, inf)" QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      List.for_all
        (fun _ -> Sim.Rng.pareto r ~shape:1.2 ~scale:3.0 >= 3.0)
        (List.init 50 Fun.id))

(* ---- tcp ephemeral ports ---------------------------------------------- *)

let eph_range = 60999 - 32768 + 1

(* One stack's active opens from host a for [ephemeral_exhaustion]. *)
type opener = {
  connect : int -> (unit -> unit) option;
      (* a connection to host b's port: [Some close], or [None] when the
         ephemeral range is exhausted for that destination *)
  settle : unit -> unit; (* run until a close has taken effect *)
  occupancy : unit -> int; (* live connections *)
}

let plexus_opener () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let tcp = Plexus.Stack.tcp p.Experiments.Common.a in
  let connect port =
    let dst = (Experiments.Common.ip_b, port) in
    match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~dst () with
    | Ok c -> Some (fun () -> Plexus.Tcp_mgr.abort c)
    | Error `Ephemeral_exhausted ->
        Alcotest.(check int) "exhaustion counted" 1
          (Plexus.Tcp_mgr.counters tcp).Plexus.Tcp_mgr.eph_exhausted;
        None
    | Error (`Port_in_use _) -> Alcotest.fail "wrong error"
  in
  let occupancy () =
    match
      Observe.Registry.find
        (Plexus.Graph.registry (Plexus.Stack.graph p.Experiments.Common.a))
        "tcp.conns.occupancy"
    with
    | Some (Observe.Registry.Gauge g) -> g ()
    | _ -> Alcotest.fail "no tcp.conns.occupancy gauge"
  in
  { connect; settle = ignore; occupancy }

let du_opener () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let du = p.Experiments.Common.dua in
  let connect port =
    match
      Osmodel.Du_stack.tcp_connect du ~dst:(Experiments.Common.ip_b, port) ()
    with
    | c -> Some (fun () -> Osmodel.Du_stack.tcp_close du c)
    | exception Failure _ -> None
  in
  let occupancy () = Osmodel.Du_stack.tcp_conns du in
  (* close(2) queues behind every connect(2): step until it has run *)
  let settle () =
    let live = occupancy () and engine = p.Experiments.Common.du_engine in
    while occupancy () = live && Sim.Engine.step engine do
      ()
    done
  in
  { connect; settle; occupancy }

let ephemeral_exhaustion opener () =
  let s = opener () in
  let first = ref None in
  for _ = 1 to eph_range do
    match s.connect 80 with
    | Some close -> if !first = None then first := Some close
    | None -> Alcotest.fail "allocation failed before exhaustion"
  done;
  Alcotest.(check int) "one connection per port" eph_range (s.occupancy ());
  (* every port now holds a live connection to this destination *)
  if s.connect 80 <> None then Alcotest.fail "expected exhaustion";
  (* a different destination tuple is unaffected *)
  if s.connect 81 = None then
    Alcotest.fail "tuple reuse should allow other destinations";
  Alcotest.(check int) "nothing overwritten" (eph_range + 1) (s.occupancy ());
  (* releasing one connection frees its port for the exhausted tuple *)
  (match !first with Some close -> close () | None -> ());
  s.settle ();
  Alcotest.(check int) "closed connection removed" eph_range (s.occupancy ());
  if s.connect 80 = None then
    Alcotest.fail "closed connection should free its port"

(* ---- flow population ------------------------------------------------ *)

(* The steady-state scale claim, as a deterministic counter: the same
   probe round through the server farm costs no more minor words per
   wire packet with 100k live connections parked than with 1k.  The
   probe schedule does not depend on the population, so the rounds are
   identical in simulated time: same packets, same p50, p99 and goodput.
   A flow table whose per-packet work grows with its population (a list,
   say) fails the words bound.  The 100k set-up takes seconds. *)
let probe_at live =
  let probe_round =
    Experiments.Farm.scale_setup ~clients:8 ~live_flows:live ~probes:500 ()
  in
  ignore (probe_round () : Experiments.Farm.probe);
  let w0 = Gc.minor_words () in
  let p = probe_round () in
  let words = Gc.minor_words () -. w0 in
  (p, words /. float_of_int p.Experiments.Farm.packets)

let population_does_not_raise_per_packet_cost () =
  let lo, lo_words = probe_at 1_000 in
  let hi, hi_words = probe_at 100_000 in
  List.iter
    (fun (p : Experiments.Farm.probe) ->
      Alcotest.(check int) "every flow established" p.live_flows p.established;
      Alcotest.(check int) "no probe errors" 0 p.probe_errors)
    [ lo; hi ];
  let sim (p : Experiments.Farm.probe) =
    (p.packets, (p.probe_p50_us, (p.probe_p99_us, p.probe_goodput_mbps)))
  in
  Alcotest.(check (pair int (pair (float 0.) (pair (float 0.) (float 0.)))))
    "packets, p50, p99, goodput identical at 1k and 100k" (sim lo) (sim hi);
  if hi_words > lo_words then
    Alcotest.failf "%.2f minor words per packet at 100k live flows, %.2f at 1k"
      hi_words lo_words

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "scale.timer_wheel",
      [
        prop wheel_oracle_qcheck;
        prop wheel_sparse_qcheck;
        tc "a lone far entry pops at its key, ties in order"
          wheel_lone_entry_pop;
        tc "keys across all levels" wheel_long_range;
        tc "100k pending, mass cancel" wheel_mass_cancel;
        tc "cancel drops the closure eagerly" wheel_cancel_drops_thunk;
        tc "fired closures are released" wheel_pop_drops_thunk;
        tc "a reused cpu slot releases its continuation"
          cpu_reused_slot_drops_continuation;
        tc "re-arming a timer releases its thunk" timer_rearm_drops_thunk;
        tc "schedule behind a peeked horizon" engine_behind_horizon;
      ] );
    ( "scale.sharded",
      [
        tc "cache bounded with eviction" cache_eviction;
        tc "clock keeps referenced entries" cache_clock_keeps_hot;
        tc "cache grows to capacity first" cache_grows;
      ] );
    ( "scale.workload",
      [
        prop pareto_support;
        Alcotest.test_case "100k live flows cost no more per packet than 1k"
          `Slow population_does_not_raise_per_packet_cost;
      ] );
    ( "scale.ephemeral",
      [
        tc "exhaustion surfaces and frees on close"
          (ephemeral_exhaustion plexus_opener);
        tc "DIGITAL UNIX: exhaustion raises, frees on close"
          (ephemeral_exhaustion du_opener);
      ] );
  ]
