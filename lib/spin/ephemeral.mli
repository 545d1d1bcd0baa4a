(** EPHEMERAL handler programs: interrupt-level work with safe termination.

    An ephemeral handler returns a value of type {!t} — a sequence of
    atomic, non-blocking actions with modelled costs.  The dispatcher
    executes the actions under an optional time budget; if the budget
    expires, execution stops between actions ("premature termination"
    without damaged invariants).  Because the only way to build actions is
    through the constructors below, an ephemeral handler cannot block —
    the type system plays the role of the paper's compiler check that
    EPHEMERAL procedures call only EPHEMERAL procedures. *)

type action
type t = action list

val action : ?label:string -> cost:Sim.Stime.t -> (unit -> unit) -> action
(** An atomic unit of interrupt-level work. *)

val nothing : t

val enqueue : ?cost:Sim.Stime.t -> 'a Queue.t -> 'a -> action
(** Non-blocking enqueue (Figure 3's [GoodHandler]). *)

val count : ?cost:Sim.Stime.t -> int ref -> action

val work : label:string -> cost:Sim.Stime.t -> (unit -> unit) -> action

val total_cost : t -> Sim.Stime.t

type result = {
  committed : int;
  total : int;
  terminated : bool;
  consumed : Sim.Stime.t;
}

type plan
(** A budget decision: which prefix of a program will commit. *)

val plan : ?budget:Sim.Stime.t -> t -> plan
(** Decide the committed prefix without side effects. *)

val planned : plan -> result
(** The plan's outcome (costs, termination) before committing. *)

val commit : plan -> result
(** Apply the planned prefix. *)

val execute : ?budget:Sim.Stime.t -> t -> result
(** [execute ?budget t] is [commit (plan ?budget t)]. *)
