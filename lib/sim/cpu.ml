(* A single processor with two service priorities.

   Work items are (cost, continuation) pairs.  The CPU serves one item at a
   time; interrupt-priority work is always dequeued before thread-priority
   work, modelling SPIN's distinction between interrupt-level handlers and
   kernel threads, and DIGITAL UNIX's interrupt vs. process split.  Service
   is non-preemptive, which matches per-packet protocol work whose units are
   tens of microseconds.

   The continuation runs at the moment its work *completes*, so a chain of
   [run] calls naturally yields end-to-end latency including queueing.

   Host cost: work items live in a pool of parallel arrays indexed by
   item number — cost and queue link are ints, continuations sit in one
   value array — and are recycled through an int free chain.  The run
   queues link items by index, the item in service is an index, and its
   completion is a single engine timer re-armed for every item, whose
   thunk never changes.  Serving an item therefore allocates nothing
   beyond the caller's continuation.  Each pointer store into a
   long-lived block pays OCaml 5's write barrier, so the continuation is
   the only pointer stored, and only when it differs from the one the
   slot last held: a finished item's continuation stays in its free slot
   until the slot is reused, so what the pool retains is bounded by its
   capacity. *)

type prio = Interrupt | Thread

let noop () = ()
let none = -1 (* ends a chain; "no item" *)

(* FIFO of pool items linked through the pool's [next] array. *)
type queue = { mutable head : int; mutable tail : int; mutable len : int }

let queue () = { head = none; tail = none; len = 0 }

type t = {
  engine : Engine.t;
  name : string;
  mutable cost : int array;  (* per item: remaining service time, ns *)
  mutable next : int array;  (* queue / free-chain link *)
  mutable k : (unit -> unit) array;
      (* continuation; a free slot keeps its last one until reused *)
  mutable free : int;  (* head of the free chain *)
  intr_q : queue;
  thread_q : queue;
  mutable resumed : int;  (* preempted thread work, served first *)
  mutable busy : bool;
  mutable preemptive : bool;
  mutable current : int;  (* item in service *)
  mutable current_prio : prio;
  mutable started : int;
      (* when [current] began service, ns: past any [charge] reservation *)
  done_at : Engine.handle;  (* completion event of [current] *)
  mutable complete : unit -> unit;  (* its thunk, built once *)
  (* times below are in ns, as ints: no [Stime] call on the hot path *)
  mutable reserved_until : int;
      (* CPU time charged inline via [charge], with no work item of its
         own: service of queued work is pushed past this instant *)
  mutable busy_ns : int;         (* accumulated service time *)
  mutable window_start : int;    (* start of the accounting window *)
  mutable window_busy : int;     (* busy time within the window *)
  mutable served : int;
}

let name t = t.name
let engine t = t.engine
let busy_time t = Stime.ns t.busy_ns
let served t = t.served

(* Opt-in preemption: interrupt-priority arrivals suspend in-service
   thread-priority work (its remainder resumes once interrupts drain).
   Off by default — the calibrated experiments use non-preemptive
   two-level service. *)
let set_preemptive t flag = t.preemptive <- flag
let preemptive t = t.preemptive

let capacity t = Array.length t.cost

(* Double the pool; the new items form the free chain. *)
let grow t =
  let cap = capacity t in
  let ncap = Int.max 8 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.cost <- extend t.cost 0;
  t.k <- extend t.k noop;
  t.next <- extend t.next none;
  for i = cap to ncap - 2 do
    t.next.(i) <- i + 1
  done;
  t.free <- cap

let take t cost k =
  if t.free = none then grow t;
  let w = t.free in
  t.free <- t.next.(w);
  t.cost.(w) <- (cost : Stime.t :> int);
  if t.k.(w) != k then t.k.(w) <- k;
  w

let recycle t w =
  t.next.(w) <- t.free;
  t.free <- w

let push t q w =
  t.next.(w) <- none;
  if q.head = none then q.head <- w else t.next.(q.tail) <- w;
  q.tail <- w;
  q.len <- q.len + 1

let pop t q =
  let w = q.head in
  q.head <- t.next.(w);
  if q.head = none then q.tail <- none;
  q.len <- q.len - 1;
  w

(* Put item [w] in service and return its completion instant, ns. *)
let serve t w prio =
  t.busy <- true;
  let now = (Engine.now t.engine :> int) in
  (* an outstanding inline charge delays service of queued work *)
  let start = if t.reserved_until > now then t.reserved_until else now in
  t.current <- w;
  t.current_prio <- prio;
  t.started <- start;
  start + t.cost.(w)

(* Put the next queued item in service — interrupt work first, then
   preempted thread work, then thread work — and return its completion
   instant; [none] when the queues are empty and the CPU goes idle. *)
let service t =
  if t.intr_q.head <> none then serve t (pop t t.intr_q) Interrupt
  else if t.resumed <> none then begin
    let w = t.resumed in
    t.resumed <- none;
    serve t w Thread
  end
  else if t.thread_q.head <> none then serve t (pop t t.thread_q) Thread
  else begin
    t.busy <- false;
    t.current <- none;
    none
  end

let arm t due = Engine.arm t.engine t.done_at ~at:(Stime.ns due) t.complete

(* Finish the item in service, run its continuation and serve the next
   one.  When the engine would pop that item's completion next anyway,
   it is finished right here, in a loop, instead of through the timer. *)
let rec complete t =
  let w = t.current in
  t.current <- none;
  let cost = t.cost.(w) in
  t.busy_ns <- t.busy_ns + cost;
  t.window_busy <- t.window_busy + cost;
  t.served <- t.served + 1;
  let k = t.k.(w) in
  recycle t w;
  k ();
  let due = service t in
  if due <> none then
    if Engine.elide t.engine due then complete t else arm t due

let create engine ~name =
  let t =
    {
      engine;
      name;
      cost = [||];
      next = [||];
      k = [||];
      free = none;
      intr_q = queue ();
      thread_q = queue ();
      resumed = none;
      busy = false;
      preemptive = false;
      current = none;
      current_prio = Thread;
      started = 0;
      done_at = Engine.timer engine;
      complete = noop;
      reserved_until = 0;
      busy_ns = 0;
      window_start = 0;
      window_busy = 0;
      served = 0;
    }
  in
  t.complete <- (fun () -> complete t);
  t

(* Suspend in-service thread work so that a just-arrived interrupt runs
   immediately; the consumed slice is charged now and the remainder goes
   back to the head of the line. *)
let preempt t =
  if t.current <> none && t.current_prio = Thread then begin
    let w = t.current in
    Engine.cancel t.engine t.done_at;
    (* nothing is consumed while a reservation still holds the CPU *)
    let consumed = Int.max 0 ((Engine.now t.engine :> int) - t.started) in
    t.busy_ns <- t.busy_ns + consumed;
    t.window_busy <- t.window_busy + consumed;
    t.cost.(w) <- t.cost.(w) - consumed;
    t.resumed <- w;
    t.current <- none;
    (* the interrupt just queued goes into service *)
    arm t (service t)
  end

(* Account CPU work performed inline by the caller, with no work item and
   no engine event: the CPU is reserved until now + cost, so pending and
   future work items are served only after the reservation elapses.  Used
   by the dispatcher's flow-path replay, which runs a whole cached chain
   synchronously and charges its modelled cost in one step. *)
let charge t ~cost =
  let now = (Engine.now t.engine :> int) and cost = (cost : Stime.t :> int) in
  let base = if t.reserved_until > now then t.reserved_until else now in
  t.reserved_until <- base + cost;
  t.busy_ns <- t.busy_ns + cost;
  t.window_busy <- t.window_busy + cost

let submit t prio ~cost k =
  let w = take t cost k in
  if not t.busy then
    (* idle CPU: the queues are empty (service drains them before
       clearing [busy]), so skip the queue round-trip entirely *)
    arm t (serve t w prio)
  else begin
    push t (match prio with Interrupt -> t.intr_q | Thread -> t.thread_q) w;
    if t.preemptive && prio = Interrupt then preempt t
  end

let run t ?(prio = Thread) ~cost k = submit t prio ~cost k

let reset_window t =
  t.window_start <- (Engine.now t.engine :> int);
  t.window_busy <- 0

let utilization t =
  let e = (Engine.now t.engine :> int) - t.window_start in
  if e <= 0 then 0.0 else float_of_int t.window_busy /. float_of_int e

let queue_depth t =
  t.intr_q.len + t.thread_q.len + if t.resumed <> none then 1 else 0
