(** Declarative packet filters — the interpreted alternative to compiled
    guards ([MRA87]; the Mach comparison in paper section 3.1).

    A filter is plain data: applications can hand one to a manager with
    no code installation at all, at the price of interpretation cost
    ({!eval_cost}) on every packet.  Compiling it ({!compile}) lowers the
    tree to a flat array of closure-free instructions run by a tight
    loop (DPF-style), and {!key_conjuncts} exposes the literal
    demultiplexing tests the filter implies so the dispatcher's merged
    decision tree can skip it entirely (PathFinder-style). *)

type anchor = Cur | Abs

type field =
  | U8 of anchor * int
  | U16 of anchor * int
  | U32 of anchor * int
  | Ip_proto
  | Src_port
  | Dst_port
  | Payload_len

type t =
  | True
  | False
  | Eq of field * int
  | Lt of field * int
  | Gt of field * int
  | Mask of field * int * int
  | And of t * t
  | Or of t * t
  | Not of t

val nodes : t -> int
(** Expression size (interpretation cost scales with it). *)

val eval_cost : t -> Sim.Stime.t
(** Modelled per-packet interpretation cost. *)

val eval : t -> Pctx.t -> bool
(** Reference semantics: interpret the filter against a packet context.
    Fields that are not available (short packet, no parsed header, no
    ports yet) make the enclosing comparison false. *)

(** {1 Compilation} *)

val normalize : t -> t
(** Constant folding, [And]/[Or] flattening, and short-circuit ordering
    of conjuncts/disjuncts by estimated field cost.  Semantics-preserving
    for well-formed (non-negative-offset) filters: tests are pure, so
    reordering cannot change the result. *)

type program
(** A filter compiled to a flat array of closure-free instructions. *)

val compile : t -> program
(** Normalize and lower to straight-line instruction form. *)

val run : program -> Pctx.t -> bool
(** Execute a compiled filter: a tight loop over the instruction array
    with the packet views hoisted out of the per-field reads.  Agrees
    with {!eval} on every context. *)

val compile_guard : t -> Pctx.t -> bool
(** [compile t] partially applied — the filter as an ordinary guard
    closure for installs that take one. *)

val program_length : program -> int
(** Instructions in the compiled form (≤ the comparison count of the
    normalized filter). *)

val compiled_cost : program -> Sim.Stime.t
(** Modelled per-packet cost of {!run}: a fixed entry overhead plus a
    few ns per instruction — the gcost managers charge for compiled
    filters in place of {!eval_cost}. *)

(** {1 Dispatch keys}

    A dispatch key is a literal equality on a demultiplexing field —
    EtherType, IP protocol, source/destination port — encoded as an int
    for the dispatcher's merged decision tree. *)

val key_conjuncts : t -> int list
(** Every key the filter's top-level conjunction implies — each a
    top-level conjunct that is [Eq]/full-width [Mask] on a keyable field
    — sorted and deduplicated, one per demux dimension the filter pins.
    The dispatcher's merged decision tree places the handler under all
    of them.  Soundness: for each [k] in [key_conjuncts t],
    [eval t ctx = false] for every [ctx] that does not present [k] in
    {!read_context_keys}. *)

val keys_exact : t -> bool
(** True when the normalized filter is {e nothing but} keyable equality
    conjuncts: any payload presenting all of {!key_conjuncts} is a
    match, so a dispatch path that proved every key may skip the guard
    entirely.  Always false for [True]/[False] (no keys to prove). *)

val num_key_dims : int
(** Number of demux dimensions ({!ether_type_key} … {!dst_port_key}
    tags, currently 4) — the scratch-array width for
    {!read_context_keys}. *)

val read_context_keys : Pctx.t -> int array -> unit
(** The keys a packet context presents, one per demux dimension
    available at the current layer (EtherType from the frame, protocol
    from the parsed IP header, ports once parsed): writes slot [d] of
    the scratch array (≥ {!num_key_dims} slots) with the raw value the
    context presents on key dimension [d], or [-1] when absent.
    Protocol-graph events use this as their key extractor, so
    steady-state dispatch allocates nothing. *)

(** {1 Flow signatures}

    The flow-path cache's key: every field the steady-state demux
    decision can depend on, packed into {!signature_len} bytes. *)

val frame_ether_type : _ View.t -> int
(** The frame's EtherType, or [-1] if it is shorter than a header. *)

val signature_len : int
(** 22: dst MAC, EtherType, IP protocol, src/dst address, src/dst port
    and a presence byte, so absent fields cannot collide with real
    values. *)

val write_signature : Pctx.t -> Bytes.t -> bool
(** Write the flow signature of a fresh root context into the first
    {!signature_len} bytes of the buffer, reading the frame in place,
    and return [true]; or return [false] when the packet cannot be
    summarized by its demux fields (fragments, non-standard IP headers,
    contexts that already carry parsed layer state and therefore are
    not raw frames), which means the flow-path cache must be bypassed
    for this delivery.  Allocates nothing: protocol-graph events use it
    as their {!Spin.Dispatcher.set_sigfn} writer. *)

val flow_signature : Pctx.t -> string option
(** {!write_signature}'s bytes as a fresh string, or [None] where it
    refuses the context. *)

val ether_type_key : int -> int
val ip_proto_key : int -> int
val dst_port_key : int -> int
(** Key encodings for managers that install closure guards with a known
    literal (endpoint port, protocol number) rather than a filter. *)

(** {1 Builders} *)

val ip_proto_is : int -> t
val dst_port_is : int -> t
val src_port_is : int -> t

val pp : Format.formatter -> t -> unit
