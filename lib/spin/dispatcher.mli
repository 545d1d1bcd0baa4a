(** The SPIN event dispatcher: typed events, guards, handlers and the
    merged demux tree.

    "An event is raised by a kernel service or extension code to announce
    a change in system state or to request a service" (paper, section 2).
    Handlers are installed with guards — arbitrary predicates that act as
    packet filters — and may be delivered at interrupt level (possibly as
    budget-limited {!Ephemeral} programs) or each on a fresh thread.

    Every raise demultiplexes through one path, the event's merged
    decision tree (DPF/PathFinder style): handlers whose guard implies
    literal equalities on demux fields are installed with those
    equalities as [keys], the payload's key fields are read once
    ({!set_keyvfn}), and only the guards at the matching leaf are
    evaluated, so raise cost scales with matching handlers, not
    installed handlers.

    A dispatcher may carry an {!Observe.Registry} (per-event and
    per-handler counters and latency histograms) and an {!Observe.Trace}
    endpoint through which every raise, guard evaluation, handler run,
    ephemeral commit/termination and contained fault is emitted as a
    structured span when a sink is attached. *)

type t
(** One dispatcher per kernel; owns the delivery cost model and counters. *)

type delivery = Sim.Cpu.prio =
  | Interrupt  (** run handlers in the raiser's interrupt context *)
  | Thread     (** spawn a thread per handler invocation *)
(** An event's delivery mode is the CPU priority its handlers run at. *)

type costs = {
  dispatch : Sim.Stime.t;
  guard : Sim.Stime.t;
  index : Sim.Stime.t;
      (** charged once per flow-path cache hit: the signature lookup
          that stands in for the replayed chain's demux *)
  tree_node : Sim.Stime.t;
      (** charged per decision-tree switch a raise's walk visits
          (tree-proven handlers are charged no [guard]) *)
  thread_spawn : Sim.Stime.t;
}

val default_costs : costs

val create :
  ?registry:Observe.Registry.t -> ?trace:Observe.Trace.t ->
  cpu:Sim.Cpu.t -> costs:costs -> unit -> t
(** [create ?registry ?trace ~cpu ~costs ()] builds a dispatcher.  With a
    [registry], per-event and per-handler metrics are published under
    [spin.<event>...] names; without one, the same counts are kept in
    private refs (identical hot-path cost, minus histogram recording).
    [trace] is the span endpoint; it defaults to a fresh endpoint with a
    [Null] sink, under which span construction is skipped entirely. *)

val cpu : t -> Sim.Cpu.t
val costs : t -> costs

val registry : t -> Observe.Registry.t option
val trace : t -> Observe.Trace.t

(** {1 Events} *)

type 'a event
(** An event whose payload has type ['a]. *)

val event : t -> ?mode:delivery -> string -> 'a event
(** Declare a named event (default delivery: [Interrupt]). *)

val name : _ event -> string
val mode : _ event -> delivery
val set_mode : _ event -> delivery -> unit

val set_keyvfn : 'a event -> dims:int -> ('a -> int array -> unit) -> unit
(** Declare the event's demux-key extractor: it fills slot [d]
    ([0 <= d < dims]) of a per-event scratch array with the payload's
    value on key dimension [d] (a key [k] has dimension [k lsr 16] and
    value [k land 0xffff]), or [-1] when absent.  The extractor must
    write {e every} slot below [dims] on every call — the scratch is
    reused without being wiped between raises, so steady-state dispatch
    allocates nothing.  Protocol-graph events pass
    [Filter.read_context_keys] with [dims = Filter.num_key_dims].
    Soundness contract: a keyed handler's guard must reject any payload
    that does not present all its keys, so the tree only ever skips
    guards that would refuse. *)

(** {1 Merged decision-tree dispatch}

    Every raise walks one decision tree per event, compiled from its
    handlers' keys (DPF-style cross-filter merge): common tests are
    evaluated once, each switch jumps through a dense open-addressed
    table, and the reached leaf holds the exact set of matching
    handlers — zero per-handler guard re-evaluation for handlers
    installed with [~exact:true] (opaque closure guards are
    leaf-attached residual checks; unkeyed handlers, and handlers with
    a key of dimension [>= 64] or a negative key, are residuals at
    every leaf).  Switches are built only when the event has a key
    extractor, more than one handler and at least one keyed handler;
    otherwise the tree is one leaf that evaluates every guard in
    install order.  The tree is memoized behind the event's generation
    counter and recompiled lazily on the first raise after any churn,
    so the flow-path cache and the per-domain dispatcher instances keep
    counter-for-counter equivalence. *)

(** {1 Flow-path cache}

    The steady-state datapath: a root raise on an event with a signature
    writer summarizes the payload into a compact flow signature.  On
    a miss, the delivery walks the graph normally while recording the
    chain of (event, accepted handlers) hops; on a hit the recorded
    chain replays directly — one signature lookup, zero intermediate
    demux, guards replaced by the signature match.  Every event carries
    a generation counter bumped on install/uninstall/{!set_mode}/
    {!set_keyvfn}/{!touch}; a hit validates every hop's generation in
    O(hops), and a stale or divergent chain falls back to graph
    dispatch, so cached delivery is observably equivalent to uncached.
    A warm hit allocates nothing of the dispatcher's own.  Disabled by
    default ({!set_flow_cache}). *)

val set_flow_cache : t -> bool -> unit
(** Enable or disable flow-path caching for root raises on this
    dispatcher.  Existing entries are retained but ignored while
    disabled (generation checks keep them sound if re-enabled). *)

val set_sigfn : 'a event -> len:int -> ('a -> Bytes.t -> bool) -> unit
(** Declare the event's flow-signature writer, making it a caching
    root.  Signatures are [len] bytes long.  The writer fills all [len]
    bytes of the buffer it is given (the event's scratch, which still
    holds the previous signature) and returns [true], or returns [false]
    when the payload cannot be summarized by its flow fields
    (fragments, non-frame contexts), which bypasses the cache for that
    raise.  Entries are matched by exact equality of the bytes.
    Soundness contract: two payloads with equal signatures must be
    indistinguishable to every [~cacheable] guard along any chain the
    raise can take. *)

(** {1 Flight recorder}

    When a {!Observe.Flight} endpoint is attached and enabled, raises
    and handler runs on events that name their payload's frame
    ({!set_framefn}) emit per-stage latency records for packets sampled
    at ingress (mbuf mark [> 0]).  Unsampled packets cost one closure
    call and compare per site; a detached or disabled recorder costs
    one load and branch. *)

val set_flight : t -> Observe.Flight.t option -> unit
val flight : t -> Observe.Flight.t option

val set_framefn : 'a event -> ('a -> Packet.Mbuf.ro Packet.Mbuf.t) -> unit
(** Declare the frame a payload carries — protocol-graph nodes name
    [Pctx.pkt].  The dispatcher {!Packet.Mbuf.hold}s it for every
    queued demux and every queued delivery and releases it once that
    step has run, so the frame's last queued step frees it; a
    flow-cache replay runs synchronously in its raiser's context and
    takes no hold.  A raiser that needs the frame after its raise
    returns holds it around the raise.  The flight recorder reads the
    frame's mark (the sampled packet id, 0 = untraced).  Does not bump
    the event's generation. *)

val touch : _ event -> unit
(** Bump the event's invalidation generation without structural change —
    managers call this when mutable state their installed guards consult
    (beyond the flow signature) changes, e.g. a port-exclusion list. *)

val generation : _ event -> int
val cache_entries : _ event -> int
(** Live flow-path cache entries rooted at this event. *)

val handler_count : _ event -> int

exception
  Install_rejected of {
    event : string;
    label : string;
    violation : Verifier.violation;
  }
(** Raised synchronously by {!install}/{!install_ephemeral} when the
    target event carries a {!Verifier.policy} and the handler's declared
    budget (or its absence, under [require_cert]) violates it. *)

val set_policy : _ event -> Verifier.policy option -> unit
(** Attach (or clear) the event's install-time admission policy.
    Handlers already installed are not re-checked — the policy gates
    admission, the quarantine gates runtime behavior. *)

val set_quarantine : _ event -> Verifier.quarantine option -> unit
(** Attach (or clear) the event's runtime eviction policy.  After each
    handler run the dispatcher compares the run ledger's delta over the
    current enforcement window against the limits; an extension over
    any of them is atomically evicted — uninstalled, counted in
    [spin.quarantines] and [spin.<event>.<label>.quarantines], and
    Drop-spanned with reason ["quarantine"]. *)

val install :
  'a event -> ?guard:('a -> bool) -> ?keys:int list ->
  ?exact:bool -> ?gcost:Sim.Stime.t ->
  ?dyncost:('a -> Sim.Stime.t) -> ?cacheable:bool -> ?label:string ->
  ?ops:Verifier.op list ->
  cost:Sim.Stime.t -> ('a -> unit) -> unit -> unit
(** [install ev ?guard ~cost fn] attaches a handler; [fn] fires for each
    raise whose [guard] accepts the payload, charging [cost] (plus
    [dyncost payload] for data-touching work) of CPU.  [gcost] adds
    per-evaluation guard cost on top of the dispatcher's base guard
    charge (interpreted packet filters).  [keys] supplies {e every} key
    the guard pins (one per dimension, e.g. {!Filter.key_conjuncts}) so
    the merged decision tree places the handler on exactly the paths
    that satisfy all of them (see {!set_keyvfn} for the soundness
    contract).  [exact] (default [false]) asserts the
    guard is {e nothing but} those key equalities
    ({!Filter.keys_exact}): a tree walk that proves them skips the
    closure entirely.  [cacheable] (default [false]) asserts that
    [guard]'s verdict is a pure function of the payload's
    flow-signature fields, allowing the flow-path cache to skip it on
    replay; a single non-cacheable candidate on an event keeps every
    chain through that event out of the cache.  [label] names the
    handler in spans, metrics
    ([spin.<event>.<label>.guard_hits|guard_misses|runs|run_ns|faults])
    and
    {!dump} output; it defaults to ["h<id>"].  Reinstalling a label
    starts a fresh metric generation ([<label>#N...]) so a replacement
    never inherits the retired generation's ledger.  [ops] declares the
    handler's operations for the {!Verifier}: the inferred budget is
    recorded in {!dump} and checked against the event's policy.
    Returns the uninstaller (O(1)). *)

val install_ephemeral :
  'a event -> ?guard:('a -> bool) -> ?keys:int list ->
  ?exact:bool -> ?gcost:Sim.Stime.t ->
  ?label:string -> ?ops:Verifier.op list -> ?budget:Sim.Stime.t ->
  ('a -> Ephemeral.t) ->
  unit -> unit
(** Attach an interrupt-level handler as an ephemeral program, optionally
    limited to [budget] of CPU per invocation (overruns are terminated
    between actions).  When [ops] is declared and [budget] is not, the
    certified bound ({!Verifier.cost} of the inferred budget) becomes
    the runtime budget — the static promise is also the enforcement
    ceiling.  Returns the uninstaller. *)

(** {1 Hot-swap lifecycle scopes}

    The zero-drop replacement protocol ({!Linker.replace} drives it):

    {v
    begin_staging -> link new generation (installs become thunks)
                  -> commit_staging   (all-or-nothing visibility flip)
    begin_retiring -> unlink old generation (handlers with queued
                      deliveries drain on the old generation first)
                   -> end_retiring
    v}

    Between [commit_staging] and the old generation's unlink both
    generations are installed; a raise in that window delivers to both,
    and deliveries queued to the old generation before its retirement
    still run ([swap_inflight] counts them until they drain).  No
    instant exists at which a matching packet sees neither generation. *)

val begin_staging : t -> unit
(** Open a staging scope: subsequent installs on any event of this
    dispatcher are deferred (invisible to raises) until
    {!commit_staging}.  Fails if a scope is already open. *)

val commit_staging : t -> int
(** Activate every install staged since {!begin_staging}, in install
    order, and return how many there were.  The activations happen
    synchronously with no engine work in between — a raise observes
    either none or all of the staged generation. *)

val abort_staging : t -> unit
(** Discard the staged installs (a failed link): none become visible.
    No-op if no scope is open. *)

val begin_retiring : t -> unit
(** Open a retire scope: until {!end_retiring}, uninstalling a handler
    with queued deliveries retires it instead — it leaves the dispatch
    tables immediately (no new raise selects it) but its queued
    deliveries still run. *)

val end_retiring : t -> int * int
(** Close the retire scope; returns [(retired, inflight)] — handlers
    retired and deliveries that were still queued to them at the flip.
    Counted in [spin.swaps]. *)

val swap_inflight : t -> int
(** Deliveries queued to retired handlers that have not yet drained;
    [0] means every old-generation delivery has completed. *)

val raise : ?prio:Sim.Cpu.prio -> 'a event -> 'a -> unit
(** Raise the event: walk its merged decision tree, evaluate the guards
    left at the reached leaf, charging demux cost, and deliver to each
    accepting handler in install order according to the event's mode.
    With the flow-path cache enabled and a signature extractor
    installed, a signable root raise is served from (or recorded into)
    the cache instead.

    [?prio] overrides the delivery priority for this raise, {e stickily}:
    nested raises made from the delivered handler bodies inherit the
    override, so a demoted raise keeps the whole graph walk demoted (the
    polled receive path under admission control relies on this — without
    it the first nested interrupt-mode event would re-escalate).
    Overridden raises bypass the flow-path cache: replay charges the
    chain synchronously in the raiser's context and a recording would
    replay at interrupt priority later, both wrong for a demoted walk. *)

(** {1 Counters} *)

val raises : t -> int
val guard_evals : t -> int

val path_cache_hits : t -> int
val path_cache_misses : t -> int

val path_cache_invalidations : t -> int
(** Cached chains discarded: stale generation at lookup or run, replay
    divergence, or a recording invalidated by churn during its own
    delivery. *)

val path_cache_evictions : t -> int
(** Cold entries displaced by the CLOCK hand when an event's cache is at
    capacity (across every event's cache on this dispatcher). *)

val invocations : t -> int
val terminations : t -> int

val faults : t -> int
(** Handlers (or guards) that raised an exception.  The fault is
    contained: counted here and in [spin.<event>.<label>.faults],
    Drop-spanned (scope [spin.<event>.<label>], reason
    ["fault: <exception>"]), and the offending handler uninstalled —
    never propagated into the kernel.  Exception: asynchronous exceptions
    ([Stack_overflow], [Out_of_memory]) signal kernel-level resource
    exhaustion and are re-raised, never contained. *)

val eph_failures : t -> int
(** Ephemeral handler {e crashes} (the handler body raised while
    building its program) — distinct from {!terminations}, which counts
    budget overruns of healthy handlers.  Also published as
    [spin.eph.failures]. *)

val quarantines : t -> int
(** Handlers evicted by a {!set_quarantine} policy ([spin.quarantines]). *)

val swaps : t -> int
(** Completed hot-swap retire scopes ([spin.swaps]). *)

(** {1 Introspection} *)

type handler_info = {
  hi_id : int;
  hi_label : string;
  hi_gen : int;
      (** reinstall generation of this label: the ledger is keyed by
          (label, generation), so a hot-swapped replacement starts at
          zero instead of inheriting the retired handler's totals *)
  hi_key : int option;
  hi_ephemeral : bool;
  hi_budget : Verifier.budget option;
      (** the certificate's statically inferred resource bound, when
          the handler was installed with a declared op list *)
  hi_guard_hits : int;
  hi_guard_misses : int;
  hi_runs : int;
  hi_cpu_ns : int;
      (** cumulative modelled CPU charged to this handler's runs (the
          per-extension resource ledger; also published as
          [spin.<event>.<label>.cpu_ns]) *)
  hi_allocs : int;
      (** mbufs allocated while this handler's body ran
          ([spin.<event>.<label>.mbuf_allocs]) *)
  hi_terminations : int;
      (** ephemeral budget overruns ([spin.<event>.<label>.terminations]) *)
  hi_failures : int;
      (** ephemeral handler crashes ([spin.<event>.<label>.failures]) *)
  hi_quarantines : int;
      (** quarantine evictions ([spin.<event>.<label>.quarantines]) *)
  hi_lat : Observe.Histogram.snapshot option;
      (** run-latency distribution; [None] on a registry-less dispatcher *)
}

type tree_info = {
  ti_nodes : int;  (** switch + leaf nodes in the compiled tree *)
  ti_depth : int;  (** longest switch chain a walk can visit *)
  ti_rebuilds : int;  (** times the tree was (re)compiled *)
  ti_raises : int;  (** raises served by a tree walk (every graph raise) *)
  ti_residual_evals : int;  (** leaf residual guards actually evaluated *)
}

type event_info = {
  ei_name : string;
  ei_mode : delivery;
  ei_indexed : bool;  (** the event has a demux-key extractor *)
  ei_generation : int;  (** invalidation generation (see {!touch}) *)
  ei_cache_entries : int;  (** live flow-path cache entries *)
  ei_tree : tree_info option;
      (** the last compiled merged dispatch tree; [None] until the first
          raise compiles one *)
  ei_handlers : handler_info list;  (** in install order *)
}

(** Structural rendering of a compiled tree ({!compiled_tree}). *)
type tree_view =
  | Tree_leaf of {
      tv_exact : (int * string) list;
          (** (hid, label) of proven matches — guards skipped *)
      tv_resid : (int * string) list;
          (** (hid, label) of residual guards — still evaluated *)
    }
  | Tree_switch of {
      tv_dim : int;  (** key dimension tested ({!Filter.key_tag} order) *)
      tv_cases : (int * tree_view) list;  (** jump-table entries by value *)
      tv_default : tree_view;  (** taken when the dimension is absent or
                                   carries an unlisted value *)
    }

val compiled_tree : _ event -> tree_view
(** The event's merged dispatch tree, compiling it first if stale. *)

val tree_raises : _ event -> int
(** Raises on this event served by a merged-tree walk (every raise not
    replayed from the flow-path cache). *)

val tree_views : t -> (string * tree_view) list
(** [compiled_tree] for every event declared on this dispatcher, in
    declaration order — the CLI's [dispatch --tree] dump. *)

val dump : t -> event_info list
(** Every event declared on this dispatcher, in declaration order, with
    its installed handlers and their live counters. *)

val pp_dump : t Fmt.t
