(* EPHEMERAL procedures (paper section 3.3).

   A handler delegated to interrupt context must (a) return quickly and
   (b) never block, and must tolerate asynchronous termination without
   damaging invariants.  The paper enforces this with a compiler check:
   EPHEMERAL procedures may only call EPHEMERAL procedures.

   We model the check with types instead of a compiler pass: an ephemeral
   handler does not run arbitrary code at interrupt level — it *returns a
   program*, a sequence of atomic actions, each with a modelled cost.  The
   only constructors available build non-blocking actions, so a
   non-ephemeral operation (blocking, unbounded) is unrepresentable —
   [IllegalHandler] from Figure 3 is a type error here.  Termination
   safety falls out: the dispatcher commits whole actions in order until
   the time budget expires and discards the rest, which is exactly "can be
   asynchronously terminated without damaging important state". *)

type action = { label : string; cost : Sim.Stime.t; commit : unit -> unit }

type t = action list

let action ?(label = "action") ~cost commit = { label; cost; commit }

let nothing : t = []

let total_cost (t : t) =
  List.fold_left (fun acc a -> Sim.Stime.add acc a.cost) Sim.Stime.zero t

(* Typical ephemeral operations, mirroring Figure 3's GoodHandler. *)

let enqueue ?(cost = Sim.Stime.ns 300) q v =
  action ~label:"enqueue" ~cost (fun () -> Queue.push v q)

let count ?(cost = Sim.Stime.ns 100) c =
  action ~label:"count" ~cost (fun () -> incr c)

let work ~label ~cost f = action ~label ~cost f

type result = {
  committed : int;      (* actions applied *)
  total : int;          (* actions in the program *)
  terminated : bool;    (* true if the budget expired first *)
  consumed : Sim.Stime.t; (* CPU time actually spent *)
}

type plan = { to_commit : action list; result : result }

(* Decide, without side effects, which prefix of the program fits in the
   budget.  The dispatcher charges [result.consumed] of CPU time first and
   commits the prefix afterwards, so simulated time and state changes stay
   ordered. *)
let plan ?budget (t : t) =
  let total = List.length t in
  match budget with
  | Some b when Sim.Stime.compare b Sim.Stime.zero <= 0 && total > 0 ->
      (* An already-expired budget terminates the program before its
         first action — even a zero-cost one — and charges nothing. *)
      { to_commit = [];
        result =
          { committed = 0; total; terminated = true;
            consumed = Sim.Stime.zero } }
  | _ ->
  let rec go acc committed consumed = function
    | [] ->
        { to_commit = List.rev acc;
          result = { committed; total; terminated = false; consumed } }
    | a :: rest ->
        let consumed' = Sim.Stime.add consumed a.cost in
        let over =
          match budget with
          | None -> false
          | Some b -> Sim.Stime.compare consumed' b > 0
        in
        if over then
          (* The overrunning action is charged up to the budget boundary
             but its effect is discarded: termination is abrupt but falls
             between atomic actions, preserving invariants. *)
          { to_commit = List.rev acc;
            result =
              { committed;
                total;
                terminated = true;
                consumed = (match budget with Some b -> b | None -> consumed');
              } }
        else go (a :: acc) (committed + 1) consumed' rest
  in
  go [] 0 Sim.Stime.zero t

let planned (p : plan) = p.result

let commit (p : plan) =
  List.iter (fun a -> a.commit ()) p.to_commit;
  p.result

let execute ?budget (t : t) = commit (plan ?budget t)
