(* Host time measurement: timed windows of workload rounds, set-up
   times, and per-call costs of single layer functions. *)

let now = Unix.gettimeofday

(* Growable int buffer; pushes allocate nothing once it has grown. *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf () = { data = Array.make 4096 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let to_floats b ~scale = Array.init b.len (fun i -> float_of_int b.data.(i) *. scale)

(* --- the reference kernel ---------------------------------------------- *)

(* This benchmark shares a few cores of a host with other tenants, and
   what they run changes a core's speed by a third within seconds,
   invisibly to this process (no steal time, CPU time = wall time).
   Host throughput and set-up time are therefore measured in reference
   seconds: each timed span is scaled by the speed, measured right
   before and after it, of a fixed kernel written against the Stdlib
   alone, so a change to the program never changes the yardstick.  The
   kernel has the program's shape: a small discrete-event loop that
   keeps its queue as a sorted list, copies 64-B payloads into fresh
   buffers, sums them and credits a port found in a hash table, plus a
   loop of short list sorts.  Everything it allocates dies young, so its
   cost does not depend on the program's heap.  A reference second is
   the host time in which the kernel runs [1 /. ref_nominal_s] times:
   about one wall second on a quiet 2-core host of the kind the
   benchmark was tuned on. *)

let ref_nominal_s = 2e-3

type ref_event = { at : int; port : int; buf : Bytes.t; next : ref_event -> unit }

let ref_ports = Hashtbl.create 64
let () = for p = 0 to 63 do Hashtbl.replace ref_ports (7000 + p) (ref 0) done
let ref_sink = ref 0

let ref_kernel () =
  let queue = ref [] and sum = ref 0 in
  let deliver e =
    let c = ref 0 in
    for i = 0 to Bytes.length e.buf - 1 do
      c := !c + Char.code (Bytes.unsafe_get e.buf i)
    done;
    (match Hashtbl.find_opt ref_ports e.port with Some r -> r := !r + !c | None -> ());
    sum := !sum + !c
  in
  let receive e =
    let b = Bytes.create 80 in
    Bytes.fill b 0 16 'h';
    Bytes.blit e.buf 0 b 16 64;
    queue := { e with at = e.at + 3; buf = b; next = deliver } :: !queue
  in
  let clock = ref 0 in
  for i = 1 to 2000 do
    let payload = Bytes.make 64 (Char.chr (i land 127)) in
    queue := { at = !clock + 5; port = 7000 + ((i * 7919) land 63); buf = payload; next = receive } :: !queue;
    while !queue <> [] do
      let due = List.sort (fun a b -> compare a.at b.at) !queue in
      queue := [];
      List.iter (fun e -> clock := e.at; e.next e) due
    done
  done;
  for i = 1 to 600 do
    let l = List.init 32 (fun j -> (j * i * 7919) land 1023) in
    sum := !sum + List.fold_left ( + ) 0 (List.sort compare l)
  done;
  ref_sink := !sum

(* Host seconds one run of the reference kernel takes now. *)
let ref_time () =
  let t0 = now () in
  ref_kernel ();
  now () -. t0

(* [dt] host seconds spent between kernel runs of [before] and [after]
   seconds, in reference seconds. *)
let to_ref ~before ~after dt = dt *. ref_nominal_s /. ((before +. after) /. 2.)

(* --- timed windows --------------------------------------------------- *)

type window = {
  host_rates : float array;  (* frames per host second, each round *)
  ref_rate : float;  (* frames per reference second, the whole window *)
  frames : int;
}

(* Run [round k] (which returns the frames it carried) for at least
   [min_rounds] rounds and until [seconds] have passed; [prepare k] runs
   untimed before each round.  The reference kernel runs right before
   and right after each round, which is scaled by its speed. *)
let window ?(prepare = ignore) ~seconds ~min_rounds round =
  let rates = ref [] and frames = ref 0 and ref_s = ref 0. and k = ref 0 in
  let t_end = now () +. seconds in
  while !k < min_rounds || now () < t_end do
    prepare !k;
    let before = ref_time () in
    let t0 = now () in
    let n = round !k in
    let dt = now () -. t0 in
    frames := !frames + n;
    ref_s := !ref_s +. to_ref ~before ~after:(ref_time ()) dt;
    if n > 0 && dt > 0. then rates := (float_of_int n /. dt) :: !rates;
    incr k
  done;
  { host_rates = Array.of_list !rates; ref_rate = float_of_int !frames /. !ref_s; frames = !frames }

(* Median host ns per operation.  [batch ()] runs one timed batch and
   whatever untimed clean-up it needs, returning the timed seconds and
   the operations in them.  Batches repeat for [budget] seconds. *)
let ns_per_op ~budget batch =
  let samples = ref [] and k = ref 0 in
  let t_end = now () +. budget in
  while !k < 5 || now () < t_end do
    let dt, ops = batch () in
    if ops > 0 then samples := (dt *. 1e9 /. float_of_int ops) :: !samples;
    incr k
  done;
  Pstat.median (Array.of_list !samples)

(* [ns_per_op] for a function that needs no clean-up, [reps] calls per
   batch. *)
let ns_per_call ~budget ?(reps = 1000) f =
  ns_per_op ~budget (fun () ->
      let t0 = now () in
      for _ = 1 to reps do
        f ()
      done;
      (now () -. t0, reps))

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Set-up time of a run, in reference seconds, sampled across it the
   way rounds are.  [setup] runs once untimed to warm the process, then
   [reps] times before the window (earlier results collected first, so
   they do not swell the peak heap), and once more every [every] rounds
   inside it: [window world extra] must call [extra k] before round [k],
   outside the round's timing.  [world] is the last pre-window set-up's.
   The run's set-up time is the median of them all. *)
let setup_during ~reps ~every setup window =
  ignore (setup ());
  let times = ref [] and world = ref None in
  let timed_setup () =
    let before = ref_time () in
    let dt, w = timed setup in
    times := to_ref ~before ~after:(ref_time ()) dt :: !times;
    w
  in
  for _ = 1 to reps do
    world := None;
    Gc.full_major ();
    world := Some (timed_setup ())
  done;
  let extra k = if k mod every = every - 1 then ignore (timed_setup ()) in
  let result =
    match !world with
    | Some w -> window w extra
    | None -> invalid_arg "Hostcost.setup_during: reps must be positive"
  in
  (Pstat.median (Array.of_list !times), result)

let minor_words () = Gc.minor_words ()

(* The major heap's high-water mark so far. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
