(** The merged demux tree: all of an event's keyed handlers compiled
    into one decision tree over the key dimensions (DPF/PathFinder
    style), and the walk a raise makes through it.

    A member's [keys] are the literal equalities its guard implies, one
    per dimension (a key [k] has dimension [k lsr 16] and value
    [k land 0xffff]).  Each switch tests one dimension's value against a
    dense open-addressed jump table; each leaf holds the exact set of
    members that can match on its path.  Members whose guard is nothing
    but their keys ([exact]) are proven matches at their leaves;
    inexact keyed members are residuals there, and members the tree
    cannot switch on (no keys, a key of dimension [>= 64] or a negative
    key) are residuals at every leaf.  A raise makes one walk and never
    backtracks: wildcards are cross-producted into every value child,
    and subtrees that can still match the same members are shared.

    Soundness rests on the install contract: a keyed member's guard
    rejects any payload that does not present all its keys, so pruning
    it off a path only skips a guard that would have said no. *)

type 'h t
(** A compiled tree over members carrying handlers of type ['h]. *)

type 'h leaf
(** Where a walk ends: the members that can match on its path. *)

type 'h member = {
  id : int;  (** install order: leaves list members by it *)
  keys : int list;  (** every key the member's guard pins *)
  exact : bool;  (** the guard is nothing but its keys *)
  cacheable : bool;  (** the guard is a pure function of the flow signature *)
  handler : 'h;
}

val compile : extractor:bool -> 'h member list -> 'h t
(** Compile the members, in any order.  Switches are built only when
    [extractor] holds (the event can read its payload's keys), there
    is more than one member and at least one of them has keys the tree
    can express; otherwise the tree is one leaf holding every member as
    a residual, in id order. *)

val ndims : _ t -> int
(** Key slots a walk reads: the largest dimension a switch tests, plus
    one.  [0] when the tree is one leaf, whose walk reads no key. *)

val walk : 'h t -> int array -> 'h leaf
(** Walk the tree with [keys.(d)] as the payload's value on dimension
    [d], or [-1] when absent; a dimension past the array's end reads as
    absent.  Allocates nothing.  The number of switches visited is then
    {!visited}. *)

val visited : _ t -> int
(** Switches the last {!walk} visited. *)

val exact : 'h leaf -> 'h array
(** Proven matches, in id order: their guards need not run. *)

val resid : 'h leaf -> 'h array
(** Members whose guards must still run, in id order. *)

val cacheable : _ leaf -> bool
(** Every member at the leaf is [cacheable]. *)

val nodes : _ t -> int
(** Switches plus distinct leaves. *)

val depth : _ t -> int
(** Longest chain of switches a walk can visit. *)

(** Structural rendering of a tree. *)
type view =
  | Tree_leaf of {
      tv_exact : (int * string) list;
          (** (id, label) of proven matches — guards skipped *)
      tv_resid : (int * string) list;
          (** (id, label) of residual guards — still evaluated *)
    }
  | Tree_switch of {
      tv_dim : int;  (** key dimension tested *)
      tv_cases : (int * view) list;  (** jump-table entries by value *)
      tv_default : view;  (** taken when the dimension is absent or
                              carries an unlisted value *)
    }

val view : ('h -> int * string) -> 'h t -> view
(** Render the tree, naming each handler by [(id, label)]. *)
