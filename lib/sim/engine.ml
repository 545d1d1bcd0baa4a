(* The discrete-event loop.  Events are thunks keyed by their firing time;
   the loop repeatedly pops the earliest event, advances the clock to it and
   runs it.

   Events live in a hierarchical timer wheel (O(1) schedule, O(1) true
   cancel that drops the thunk eagerly).  An event is one wheel entry: an
   index into int arrays plus one slot of the payload array, recycled once
   it has fired or been cancelled.  A handle is that index packed with the
   entry's generation, so scheduling allocates nothing beyond the caller's
   closure, and a handle kept past its event cancels nothing.

   The wheel's horizon moves only when an event pops, and the clock
   follows the pops, so every schedule (at or after the clock) lands
   inside the wheel: [run ~until] looks ahead with [min_key], which reads
   without cascading. *)

type handle = Timer_wheel.handle

type t = {
  mutable clock : Stime.t;
  wheel : (unit -> unit) Timer_wheel.t;
  rng : Rng.t;
  mutable events_run : int;
}

let noop () = ()

let create ?(seed = 42) () =
  {
    clock = Stime.zero;
    wheel = Timer_wheel.create ~dummy:noop ();
    rng = Rng.create seed;
    events_run = 0;
  }

let now t = t.clock
let rng t = t.rng
let events_run t = t.events_run
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

let step t =
  if Timer_wheel.is_empty t.wheel then false
  else begin
    let k = Timer_wheel.pop t.wheel in
    t.clock <- Stime.ns (Timer_wheel.horizon t.wheel);
    t.events_run <- t.events_run + 1;
    k ();
    true
  end

let run ?until ?(max_events = max_int) t =
  let n = ref 0 in
  match until with
  | None -> while !n < max_events && step t do incr n done
  | Some limit ->
      let key = Stime.to_ns limit in
      while
        !n < max_events && Timer_wheel.min_key t.wheel <= key && step t
      do
        incr n
      done;
      (* If we stopped because of the horizon, advance the clock to it so
         that utilization windows are well-defined. *)
      if Stime.compare t.clock limit < 0 then t.clock <- limit
