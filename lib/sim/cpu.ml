(* A single processor with two service priorities.

   Work items are (cost, continuation) pairs.  The CPU serves one item at a
   time; interrupt-priority work is always dequeued before thread-priority
   work, modelling SPIN's distinction between interrupt-level handlers and
   kernel threads, and DIGITAL UNIX's interrupt vs. process split.  Service
   is non-preemptive, which matches per-packet protocol work whose units are
   tens of microseconds.

   The continuation runs at the moment its work *completes*, so a chain of
   [run] calls naturally yields end-to-end latency including queueing.

   Host cost: a work item is one mutable record, recycled through a free
   list and chained into the run queues through its own [next] field; the
   item in service lives in plain fields, and its completion is a single
   engine timer re-armed for every item.  Serving an item therefore
   allocates nothing beyond the caller's continuation. *)

type prio = Interrupt | Thread

type work = {
  mutable cost : Stime.t;
  mutable k : unit -> unit;
  mutable next : work; (* queue / free-list link; [nil] ends a chain *)
}

let noop () = ()
let rec nil = { cost = Stime.zero; k = noop; next = nil }

(* FIFO of work items linked through [next]. *)
type queue = { mutable head : work; mutable tail : work; mutable len : int }

let queue () = { head = nil; tail = nil; len = 0 }

let push q w =
  w.next <- nil;
  if q.head == nil then q.head <- w else q.tail.next <- w;
  q.tail <- w;
  q.len <- q.len + 1

let pop q =
  let w = q.head in
  q.head <- w.next;
  if q.head == nil then q.tail <- nil;
  q.len <- q.len - 1;
  w.next <- nil;
  w

type t = {
  engine : Engine.t;
  name : string;
  intr_q : queue;
  thread_q : queue;
  mutable resumed : work;  (* preempted thread work, served first; or nil *)
  mutable busy : bool;
  mutable preemptive : bool;
  mutable current : work;  (* item in service, or nil *)
  mutable current_prio : prio;
  mutable started : Stime.t;  (* when [current] entered service *)
  done_at : Engine.handle;  (* completion event of [current] *)
  mutable complete : unit -> unit;  (* its thunk, built once *)
  mutable free : work;  (* recycled items, linked through [next] *)
  mutable reserved_until : Stime.t;
      (* CPU time charged inline via [charge], with no work item of its
         own: service of queued work is pushed past this instant *)
  mutable busy_ns : Stime.t;         (* accumulated service time *)
  mutable window_start : Stime.t;    (* start of the accounting window *)
  mutable window_busy : Stime.t;     (* busy time within the window *)
  mutable served : int;
}

let name t = t.name
let engine t = t.engine
let busy_time t = t.busy_ns
let served t = t.served

(* Opt-in preemption: interrupt-priority arrivals suspend in-service
   thread-priority work (its remainder resumes once interrupts drain).
   Off by default — the calibrated experiments use non-preemptive
   two-level service. *)
let set_preemptive t flag = t.preemptive <- flag
let preemptive t = t.preemptive

let take t cost k =
  let w = t.free in
  if w == nil then { cost; k; next = nil }
  else begin
    t.free <- w.next;
    w.cost <- cost;
    w.k <- k;
    w.next <- nil;
    w
  end

let recycle t w =
  w.k <- noop;
  w.next <- t.free;
  t.free <- w

let rec service t =
  if t.intr_q.head != nil then serve t (pop t.intr_q) Interrupt
  else if t.resumed != nil then begin
    let w = t.resumed in
    t.resumed <- nil;
    serve t w Thread
  end
  else if t.thread_q.head != nil then serve t (pop t.thread_q) Thread
  else begin
    t.busy <- false;
    t.current <- nil
  end

and serve t w prio =
  t.busy <- true;
  let started = Engine.now t.engine in
  (* an outstanding inline charge delays service of queued work *)
  let wait = Stime.max Stime.zero (Stime.sub t.reserved_until started) in
  t.current <- w;
  t.current_prio <- prio;
  t.started <- started;
  Engine.arm t.engine t.done_at
    ~at:(Stime.add started (Stime.add wait w.cost))
    t.complete

let complete t =
  let w = t.current in
  t.current <- nil;
  t.busy_ns <- Stime.add t.busy_ns w.cost;
  t.window_busy <- Stime.add t.window_busy w.cost;
  t.served <- t.served + 1;
  let k = w.k in
  recycle t w;
  k ();
  service t

let create engine ~name =
  let t =
    {
      engine;
      name;
      intr_q = queue ();
      thread_q = queue ();
      resumed = nil;
      busy = false;
      preemptive = false;
      current = nil;
      current_prio = Thread;
      started = Stime.zero;
      done_at = Engine.timer engine;
      complete = noop;
      free = nil;
      reserved_until = Stime.zero;
      busy_ns = Stime.zero;
      window_start = Stime.zero;
      window_busy = Stime.zero;
      served = 0;
    }
  in
  t.complete <- (fun () -> complete t);
  t

(* Suspend in-service thread work so that a just-arrived interrupt runs
   immediately; the consumed slice is charged now and the remainder goes
   back to the head of the line. *)
let preempt t =
  if t.current != nil && t.current_prio = Thread then begin
    let w = t.current in
    Engine.cancel t.done_at;
    let consumed = Stime.sub (Engine.now t.engine) t.started in
    t.busy_ns <- Stime.add t.busy_ns consumed;
    t.window_busy <- Stime.add t.window_busy consumed;
    w.cost <- Stime.sub w.cost consumed;
    t.resumed <- w;
    t.current <- nil;
    service t
  end

(* Account CPU work performed inline by the caller, with no work item and
   no engine event: the CPU is reserved until now + cost, so pending and
   future work items are served only after the reservation elapses.  Used
   by the dispatcher's flow-path replay, which runs a whole cached chain
   synchronously and charges its modelled cost in one step. *)
let charge t ~cost =
  let now = Engine.now t.engine in
  let base = Stime.max now t.reserved_until in
  t.reserved_until <- Stime.add base cost;
  t.busy_ns <- Stime.add t.busy_ns cost;
  t.window_busy <- Stime.add t.window_busy cost

let submit t prio ~cost k =
  let w = take t cost k in
  if not t.busy then
    (* idle CPU: the queues are empty (service drains them before
       clearing [busy]), so skip the queue round-trip entirely *)
    serve t w prio
  else begin
    push (match prio with Interrupt -> t.intr_q | Thread -> t.thread_q) w;
    if t.preemptive && prio = Interrupt then preempt t
  end

let run t ?(prio = Thread) ~cost k = submit t prio ~cost k

let reset_window t =
  t.window_start <- Engine.now t.engine;
  t.window_busy <- Stime.zero

let utilization t =
  let elapsed = Stime.sub (Engine.now t.engine) t.window_start in
  let e = Stime.to_ns elapsed in
  if e <= 0 then 0.0
  else
    let u = Stime.to_ns t.window_busy in
    float_of_int u /. float_of_int e

let queue_depth t =
  t.intr_q.len + t.thread_q.len + if t.resumed != nil then 1 else 0
