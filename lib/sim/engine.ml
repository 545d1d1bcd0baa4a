(* The discrete-event loop.  Events are thunks keyed by their firing time;
   the loop repeatedly pops the earliest event, advances the clock to it and
   runs it.

   Events live in a hierarchical timer wheel (O(1) schedule, O(1) true
   cancel that drops the thunk eagerly).  An event is one wheel entry: an
   index into int arrays plus one slot of the payload array, recycled once
   it has fired or been cancelled.  A handle is that index packed with the
   entry's generation, so scheduling allocates nothing beyond the caller's
   closure, and a handle kept past its event cancels nothing.

   The wheel's horizon moves only when an event pops, and the clock is
   never behind it, so every schedule (at or after the clock) lands
   inside the wheel: [run ~until] looks ahead with [min_key], which reads
   without cascading.

   Elision: inside [run], a caller about to schedule an event that would
   be the very next one popped — strictly before every queued event,
   within [until] and the event budget — may instead ask [elide] to
   advance the clock to it and count it, then run it in place (the CPU
   model does so for back-to-back work-item completions).  The clock then
   runs ahead of the wheel's horizon, which stays a valid lower bound for
   every later schedule. *)

type handle = Timer_wheel.handle

type t = {
  mutable clock : Stime.t;
  wheel : (unit -> unit) Timer_wheel.t;
  rng : Rng.t;
  mutable events_run : int;
  mutable popped : int;
  mutable elide_until : int;
      (* latest instant [elide] may move the clock to, in ns; -1 outside
         [run], so a bare [step] elides nothing *)
  mutable stop : int;  (* [events_run] at which the current [run] stops *)
}

let noop () = ()

let create ?(seed = 42) () =
  {
    clock = Stime.zero;
    wheel = Timer_wheel.create ~dummy:noop ();
    rng = Rng.create seed;
    events_run = 0;
    popped = 0;
    elide_until = -1;
    stop = 0;
  }

let now t = t.clock
let rng t = t.rng
let events_run t = t.events_run
let popped t = t.popped
let pending t = Timer_wheel.live t.wheel

let key_of t at =
  if Stime.compare at t.clock < 0 then
    invalid_arg "Engine.schedule: cannot schedule in the past";
  Stime.to_ns at

let schedule t ~at thunk = Timer_wheel.add t.wheel ~key:(key_of t at) thunk
let schedule_in t ~delay thunk = schedule t ~at:(Stime.add t.clock delay) thunk
let post t ~at thunk = ignore (schedule t ~at thunk : handle)
let post_in t ~delay thunk = post t ~at:(Stime.add t.clock delay) thunk
let timer t = Timer_wheel.timer t.wheel
let arm t h ~at thunk = Timer_wheel.arm t.wheel h ~key:(key_of t at) thunk
let cancel t h = Timer_wheel.cancel t.wheel h
let capacity t = Timer_wheel.capacity t.wheel

(* A tie with a queued event does not elide: that event was scheduled
   first, so it runs first. *)
let elide t at =
  if
    at <= t.elide_until
    && t.events_run < t.stop
    && at < Timer_wheel.min_key t.wheel
  then begin
    t.clock <- Stime.ns at;
    t.events_run <- t.events_run + 1;
    true
  end
  else false

let step t =
  if Timer_wheel.is_empty t.wheel then false
  else begin
    let k = Timer_wheel.pop t.wheel in
    t.clock <- Stime.ns (Timer_wheel.horizon t.wheel);
    t.events_run <- t.events_run + 1;
    t.popped <- t.popped + 1;
    k ();
    true
  end

(* Steps until the queue empties, the next event lies past [elide_until]
   or the budget is spent; [max_int] as the limit means no [until]. *)
let rec drain t =
  if
    t.events_run < t.stop
    && (t.elide_until = max_int || Timer_wheel.min_key t.wheel <= t.elide_until)
    && step t
  then drain t

let run ?until ?(max_events = max_int) t =
  let saved_until = t.elide_until and saved_stop = t.stop in
  t.elide_until <- (match until with None -> max_int | Some l -> Stime.to_ns l);
  t.stop <-
    (if max_events > max_int - t.events_run then max_int
     else t.events_run + max_events);
  (match drain t with
  | () -> ()
  | exception e ->
      t.elide_until <- saved_until;
      t.stop <- saved_stop;
      raise e);
  t.elide_until <- saved_until;
  t.stop <- saved_stop;
  (* If we stopped short of the horizon, advance the clock to it so that
     utilization windows are well-defined. *)
  match until with
  | Some limit when Stime.compare t.clock limit < 0 -> t.clock <- limit
  | _ -> ()
