(* Bounded packet-buffer pools.

   SPIN exposes "the interface for allocating packet buffers" to most
   extensions; a real kernel bounds that resource.  A pool enforces a
   buffer budget: a reservation fails (and is counted) when the budget
   is exhausted, which is how receive paths shed load when a consumer
   falls behind rather than growing without bound.

   Budget slots and buffer memory are separate concerns: the memory
   behind an mbuf comes from (and returns to) Mbuf's size-classed
   recycling free list; a pool accounts who may hold how many buffers at
   once, through [reserve]/[release] slot operations. *)

type t = {
  name : string;
  capacity : int;
  mutable live : int;
  mutable allocations : int;
  mutable failures : int;
  mutable peak : int;
  mutable underflows : int;
  (* backpressure watermarks: when occupancy crosses [hi_mark] the pool
     is "pressured" and the subscriber is told to slow down; it stays
     pressured until occupancy falls back to [lo_mark] (hysteresis, so a
     consumer hovering at the boundary doesn't flap). *)
  mutable hi_mark : int;
  mutable lo_mark : int;
  mutable pressured : bool;
  mutable pressure_events : int;
  mutable on_pressure : (bool -> unit) option;
}

let create ?(name = "pool") ~capacity () =
  if capacity <= 0 then invalid_arg "Pool.create: capacity must be positive";
  {
    name;
    capacity;
    live = 0;
    allocations = 0;
    failures = 0;
    peak = 0;
    underflows = 0;
    hi_mark = capacity + 1;
    lo_mark = 0;
    pressured = false;
    pressure_events = 0;
    on_pressure = None;
  }

let name t = t.name
let capacity t = t.capacity
let live t = t.live
let allocations t = t.allocations
let failures t = t.failures
let peak t = t.peak
let underflows t = t.underflows

let set_pressure t ?(hi = 0.75) ?(lo = 0.5) f =
  if hi <= 0. || hi > 1. || lo < 0. || lo > hi then
    invalid_arg "Pool.set_pressure: watermarks";
  t.hi_mark <- max 1 (int_of_float (ceil (hi *. float_of_int t.capacity)));
  t.lo_mark <- int_of_float (floor (lo *. float_of_int t.capacity));
  t.on_pressure <- Some f

let pressured t = t.pressured
let pressure_events t = t.pressure_events

let[@inline] check_rise t =
  if (not t.pressured) && t.live >= t.hi_mark then begin
    t.pressured <- true;
    t.pressure_events <- t.pressure_events + 1;
    match t.on_pressure with Some f -> f true | None -> ()
  end

let[@inline] check_fall t =
  if t.pressured && t.live <= t.lo_mark then begin
    t.pressured <- false;
    match t.on_pressure with Some f -> f false | None -> ()
  end

let reserve t =
  if t.live >= t.capacity then begin
    t.failures <- t.failures + 1;
    false
  end
  else begin
    t.live <- t.live + 1;
    t.allocations <- t.allocations + 1;
    if t.live > t.peak then t.peak <- t.live;
    check_rise t;
    true
  end

(* Batched slot accounting: one bounds check and one counter update for
   [n] frames arriving back to back.  Grants as many of the [n] slots as
   the budget allows and counts the remainder as failures. *)
let reserve_n t n =
  if n < 0 then invalid_arg "Pool.reserve_n: negative count";
  let granted = Int.min n (t.capacity - t.live) in
  t.live <- t.live + granted;
  t.allocations <- t.allocations + granted;
  if t.live > t.peak then t.peak <- t.live;
  if granted > 0 then check_rise t;
  if granted < n then t.failures <- t.failures + (n - granted);
  granted

let release t =
  if t.live = 0 then begin
    (* an underflow means a slot was given back twice — a double free.
       The seed silently swallowed this; now it is counted and fatal. *)
    t.underflows <- t.underflows + 1;
    invalid_arg (t.name ^ ": pool slot released twice (double free)")
  end;
  t.live <- t.live - 1;
  check_fall t

let release_n t n =
  if n < 0 then invalid_arg "Pool.release_n: negative count";
  if t.live < n then begin
    t.underflows <- t.underflows + 1;
    invalid_arg (t.name ^ ": pool slots released twice (double free)")
  end;
  t.live <- t.live - n;
  check_fall t

let pp ppf t =
  Fmt.pf ppf "%s: %d/%d live (peak %d, %d allocs, %d failures, %d underflows)"
    t.name t.live t.capacity t.peak t.allocations t.failures t.underflows
