(* The SPIN event dispatcher (paper section 2) with Plexus's delivery modes
   (section 4.1).

   Events are typed: an ['a event] carries payloads of type ['a] (protocol
   events carry packets).  Handlers are installed with an optional guard —
   an arbitrary predicate evaluated before the handler fires; guards are
   Plexus's packet filters.  More than one handler may be installed on an
   event; "the overhead of invoking each handler is roughly one procedure
   call", which the cost model reflects via [costs.dispatch].

   Demultiplexing has one path, the way DPF and PathFinder showed it must
   scale: every raise walks the event's merged decision tree (see "merged
   dispatch tree" below).  Handlers whose guard implies literal
   equalities on demux fields (EtherType, IP protocol, ports) are
   installed with those equalities as [keys]; the tree switches on them,
   so raise cost scales with the number of *matching* handlers, not the
   number of *installed* handlers.  An event without a vectored key
   extractor, with at most one handler or with no keyed handler compiles
   to a single leaf that evaluates every live guard in install order —
   the paper's plain guard scan, charged [dispatch + guard * n].

   Soundness contract for keys: installing a handler with [~keys:ks]
   asserts that its guard can only accept payloads for which the event's
   key extractor presents every key in [ks].  Managers derive both from
   the same endpoint or filter, so the tree can never change which
   handlers fire — it only skips guards that were going to say no.

   Delivery modes correspond to the two Plexus bars in Figure 5:
   - [Interrupt]: handlers run at interrupt priority in the raiser's
     context.  Ephemeral handlers additionally run under a time budget
     with transactional termination.
   - [Thread]: "each event raise creating a new thread" — every handler
     invocation pays a thread-spawn cost and runs at thread priority.

   Observability: a dispatcher optionally carries an [Observe.Registry]
   (per-event raise/tree counters, per-handler guard hit/miss and fault
   counters and run-latency histograms, ephemeral commit accounting —
   naming scheme in DESIGN.md) and always carries an [Observe.Trace]
   endpoint whose sink defaults to [Null].  Span emission is guarded by
   [Trace.active], so disabled tracing costs one load and branch per
   site; counter updates are bare int-ref increments whether or not a
   registry is attached (the refs are simply shared with the registry
   when one is). *)

type delivery = Sim.Cpu.prio = Interrupt | Thread

type costs = {
  dispatch : Sim.Stime.t;      (* per-raise bookkeeping, ~ a procedure call *)
  guard : Sim.Stime.t;         (* per guard predicate evaluation *)
  index : Sim.Stime.t;         (* per flow-path cache hit: signature lookup *)
  tree_node : Sim.Stime.t;     (* per decision-tree switch visited *)
  thread_spawn : Sim.Stime.t;  (* thread-mode per-invocation cost *)
}

let default_costs =
  {
    dispatch = Sim.Stime.ns 400;
    guard = Sim.Stime.ns 300;
    index = Sim.Stime.ns 250;
    tree_node = Sim.Stime.ns 100;
    thread_spawn = Sim.Stime.us 12;
  }

(* --- flow-path cache ---------------------------------------------------
   The protocol graph is mostly static between install/uninstall events,
   so the handler chain a steady-state packet takes is identical for
   every packet of its flow.  The dispatcher exploits that: a root raise
   whose event carries a signature extractor ([set_sigfn]) summarizes
   the frame into a compact flow signature; on a miss the delivery walks
   the graph normally while *recording* the sequence of (event, accepted
   handlers) hops; on a hit the recorded chain is *replayed* directly —
   one signature lookup, no demux, no guard evaluation, the guards
   replaced by the signature match.

   Soundness rests on three mechanisms:
   - a hop is recorded only if every candidate handler (accepting or
     rejecting) was installed with [~cacheable:true], the installer's
     assertion that its guard is a pure function of the flow-signature
     fields — so skipping those guards on replay cannot change the
     accepted set;
   - each event carries a generation counter, bumped on every install,
     uninstall, mode/extractor change and explicit [touch]; a hop remembers
     the generation it saw and a hit validates every hop in O(hops)
     before running anything;
   - recordings commit only when the delivery fully drains
     ([rec_pending] reaches zero) and every hop's generation is *still*
     current — a handler that installs or uninstalls during delivery
     discards the in-flight recording instead of committing a stale
     entry (re-entrancy safety).

   Replay runs the whole chain synchronously in the root raiser's
   context: hop 0's handlers run at once, each nested raise claims the
   next recorded hop into its event's FIFO of (payload, hop) claims, and
   the claimed hops run in claim order once the hop that raised them
   finishes; the chain's modelled cost is charged in one [Cpu.charge].
   A replayed raise that diverges from the recording (different event,
   stale generation, more raises than recorded) drops the entry and
   falls back to normal graph dispatch mid-chain, so delivery is correct
   even when the cache is wrong about the future.

   A warm hit allocates nothing: the signature is written into the root
   event's scratch buffer and looked up in place (the key is copied only
   when a miss records a new entry), the replay state is one record per
   dispatcher, and each event's claim FIFO and the runner that drains it
   are built once and reused by every later replay.  Reuse has its own
   cost: storing a pointer into a long-lived block runs the write
   barrier, which a fresh young block does not.  So a claim queues the
   hop's position (an int) rather than the hop, the replay's runner
   queue is written only where the slot holds another runner, and the
   replay is flagged by a bool rather than a [flow] value. *)

type hop = {
  hop_uid : int;  (* the event the recorded raise targeted *)
  hop_gen : int ref;  (* that event's live generation cell *)
  hop_gen_at : int;  (* generation when recorded *)
  hop_hids : int list;  (* accepting handlers, delivery order *)
}

type recording = {
  rec_ename : string;  (* root event name, for spans *)
  rec_commit : hop array -> unit;  (* store into the root event's table *)
  mutable rec_hops : hop list;  (* reversed *)
  mutable rec_pending : int;  (* scheduled continuations not yet drained *)
  mutable rec_ok : bool;  (* false once any hop was uncacheable *)
}

(* The dispatcher's one replay state, reset by every hit.  Replays do
   not nest: a raise during a replay claims a hop or goes to graph
   dispatch, and neither starts another replay. *)
type replay = {
  mutable rp_hops : hop array;
  mutable rp_claim : int;  (* next hop a nested raise should claim *)
  mutable rp_cost : Sim.Stime.t;  (* handler + signature-lookup cost *)
  mutable rp_live : bool;  (* false once the chain has diverged *)
  mutable rp_entries : hop array Clock_cache.t;  (* the root's table *)
  mutable rp_key : Bytes.t;  (* the root's signature scratch: the key *)
  mutable rp_runs : (unit -> Sim.Stime.t) array;
      (* claimed hops awaiting execution, in raise order, each as its
         event's claim runner: running them FIFO after the claiming hop
         finishes reproduces graph dispatch's work-queue (hop-major)
         delivery order.  Slots past [rp_queued] keep their runners. *)
  mutable rp_next : int;  (* next entry of [rp_runs] to run *)
  mutable rp_queued : int;  (* entries of [rp_runs] in use *)
}

(* The dispatcher's dynamic delivery context.  Set only around the
   synchronous execution of handler bodies (and captured into scheduled
   continuations), so a nested [raise] knows whether it is being
   recorded.  A replay is flagged by [in_replay] instead. *)
type flow = No_flow | Recording of recording

let hop_valid hop = !(hop.hop_gen) = hop.hop_gen_at

(* A plain loop: [Array.for_all]'s inner closure would cost a hit 6
   words. *)
let rec valid_from hops i =
  i >= Array.length hops || (hop_valid hops.(i) && valid_from hops (i + 1))

let entry_valid hops = valid_from hops 0

(* Per-event entry tables are CLOCK caches (see {!Clock_cache}): a table
   grows geometrically up to this ceiling, then cold entries are evicted
   one at a time — steady-state flows re-record on their next packet. *)
let cache_capacity = 131_072

(* Introspection views (see [dump]). *)
type handler_info = {
  hi_id : int;
  hi_label : string;
  hi_gen : int; (* reinstall generation of this label (ledger key) *)
  hi_key : int option;
  hi_ephemeral : bool;
  hi_budget : Verifier.budget option; (* certified static resource bound *)
  hi_guard_hits : int;
  hi_guard_misses : int;
  hi_runs : int;
  hi_cpu_ns : int; (* cumulative modelled CPU (the resource ledger) *)
  hi_allocs : int; (* mbufs allocated during this handler's runs *)
  hi_terminations : int; (* ephemeral budget overruns *)
  hi_failures : int; (* ephemeral handler crashes (distinct from terms) *)
  hi_quarantines : int; (* budget-blown evictions of this handler *)
  hi_lat : Observe.Histogram.snapshot option; (* run_ns distribution *)
}

type tree_info = {
  ti_nodes : int;            (* switch + leaf nodes in the compiled tree *)
  ti_depth : int;            (* longest switch chain a walk can visit *)
  ti_rebuilds : int;         (* times the tree was (re)compiled *)
  ti_raises : int;           (* raises served by a tree walk *)
  ti_residual_evals : int;   (* leaf residual guards actually evaluated *)
}

type event_info = {
  ei_name : string;
  ei_mode : delivery;
  ei_indexed : bool;          (* has a key extractor *)
  ei_generation : int;        (* invalidation generation *)
  ei_cache_entries : int;     (* live flow-path cache entries *)
  ei_tree : tree_info option; (* last compiled merged dispatch tree *)
  ei_handlers : handler_info list;
}

(* Shareable rendering of a compiled tree (see [compiled_tree]). *)
type tree_view =
  | Tree_leaf of {
      tv_exact : (int * string) list;  (* (hid, label): guard skipped *)
      tv_resid : (int * string) list;  (* (hid, label): guard re-checked *)
    }
  | Tree_switch of {
      tv_dim : int;  (* key dimension tested (Filter.key_tag order) *)
      tv_cases : (int * tree_view) list;  (* jump-table entries, by value *)
      tv_default : tree_view;  (* no handler pins this dimension's value *)
    }

(* Accounting for one hot-swap retire scope (see [begin_retiring]):
   handlers retired and the queued deliveries still in flight to them at
   the instant of the flip. *)
type retire_acc = { mutable ra_retired : int; mutable ra_inflight : int }

type t = {
  cpu : Sim.Cpu.t;
  costs : costs;
  reg : Observe.Registry.t option;
  trace : Observe.Trace.t;
  raises : int ref;
  guard_evals : int ref;
  invocations : int ref;
  terminations : int ref;
  faults : int ref;
  eph_commits : int ref;
  eph_actions : int ref;       (* committed ephemeral actions *)
  eph_terminated : int ref;    (* budget overruns *)
  eph_failures : int ref;      (* handler crashes, distinct from overruns *)
  quarantines : int ref;       (* budget-blown evictions *)
  swaps : int ref;             (* completed hot-swap retire scopes *)
  pc_hits : int ref;           (* flow-path cache *)
  pc_misses : int ref;
  pc_invalidations : int ref;
  pc_evictions : int ref;      (* CLOCK evictions across all event caches *)
  mutable fcache : bool;       (* flow-path cache enabled *)
  mutable flow : flow;         (* dynamic delivery context *)
  rp : replay;                 (* the replay state every hit reuses *)
  mutable in_replay : bool;    (* a hit's chain is running: raises claim *)
  mutable prio_override : Sim.Cpu.prio option;
      (* sticky delivery-priority demotion: set around handler bodies of
         an overridden raise so nested raises inherit it — the polled
         (deferred) receive path uses this to keep the *whole* protocol
         graph walk at thread priority instead of re-escalating at the
         first nested interrupt-mode event *)
  mutable next_uid : int;      (* event uids, for hop identity *)
  mutable introspectors : (unit -> event_info) list; (* newest first *)
  mutable tree_viewers : (unit -> string * tree_view) list;
      (* per-event compiled-tree renderers, newest first *)
  mutable flight : Observe.Flight.t option;
      (* packet flight recorder; [None] (the default) costs one load +
         branch per raise/handler site *)
  mutable staging : ((unit -> unit) * (unit -> unit)) list ref option;
      (* open staging scope: installs land here as (activate, cancel)
         thunks instead of entering their event tables, and become
         visible atomically at [commit_staging] — the first half of the
         hot-swap protocol *)
  mutable retiring : retire_acc option;
      (* open retire scope: uninstalls of handlers with queued
         deliveries detach them from dispatch but let the queue drain
         on the old generation — the second half of the hot-swap *)
  mutable swap_pending : int;
      (* queued deliveries to retired handlers not yet drained *)
}

let mkref reg name =
  match reg with Some r -> Observe.Registry.counter r name | None -> ref 0

let create ?registry ?trace ~cpu ~costs () =
  let rp =
    {
      rp_hops = [||];
      rp_claim = 0;
      rp_cost = Sim.Stime.zero;
      rp_live = false;
      rp_entries = Clock_cache.create ~capacity:8 ();
          (* a placeholder: every hit sets the root's table first *)
      rp_key = Bytes.empty;
      rp_runs = [||];
      rp_next = 0;
      rp_queued = 0;
    }
  in
  {
    cpu;
    costs;
    reg = registry;
    trace = (match trace with Some tr -> tr | None -> Observe.Trace.create ());
    raises = ref 0;
    guard_evals = ref 0;
    invocations = ref 0;
    terminations = ref 0;
    faults = ref 0;
    eph_commits = mkref registry "spin.eph.commits";
    eph_actions = mkref registry "spin.eph.committed_actions";
    eph_terminated = mkref registry "spin.eph.terminated";
    eph_failures = mkref registry "spin.eph.failures";
    quarantines = mkref registry "spin.quarantines";
    swaps = mkref registry "spin.swaps";
    pc_hits = mkref registry "spin.path_cache.hits";
    pc_misses = mkref registry "spin.path_cache.misses";
    pc_invalidations = mkref registry "spin.path_cache.invalidations";
    pc_evictions = mkref registry "spin.path_cache.evictions";
    fcache = false;
    flow = No_flow;
    rp;
    in_replay = false;
    prio_override = None;
    next_uid = 0;
    introspectors = [];
    tree_viewers = [];
    flight = None;
    staging = None;
    retiring = None;
    swap_pending = 0;
  }

let cpu t = t.cpu
let costs t = t.costs
let registry t = t.reg
let trace t = t.trace
let raises t = !(t.raises)
let guard_evals t = !(t.guard_evals)
let invocations t = !(t.invocations)
let terminations t = !(t.terminations)
let faults t = !(t.faults)
let eph_failures t = !(t.eph_failures)
let quarantines t = !(t.quarantines)
let swaps t = !(t.swaps)
let swap_inflight t = t.swap_pending
let path_cache_hits t = !(t.pc_hits)
let path_cache_misses t = !(t.pc_misses)
let path_cache_invalidations t = !(t.pc_invalidations)
let path_cache_evictions t = !(t.pc_evictions)
let set_flow_cache t on = t.fcache <- on
let set_flight t fl = t.flight <- fl
let flight t = t.flight

let now_ns t = Sim.Stime.to_ns (Sim.Engine.now (Sim.Cpu.engine t.cpu))

type 'a kind =
  | Plain of {
      cost : Sim.Stime.t;
      dyncost : ('a -> Sim.Stime.t) option;
          (* data-touching work that scales with the payload *)
      fn : 'a -> unit;
    }
  | Eph of { budget : Sim.Stime.t option; fn : 'a -> Ephemeral.t }

(* Per-handler accounting.  The hit/miss/run refs live in the
   dispatcher's registry when one is attached (so snapshots see them);
   the latency histogram only exists under a registry — recording into
   it is the one per-run cost a detached dispatcher does not pay. *)
type hstats = {
  h_hits : int ref;
  h_misses : int ref;
  h_runs : int ref;
  h_lat : Observe.Histogram.t option;
  (* Per-extension resource ledger (ROADMAP 3(a)'s quarantine signal):
     cumulative modelled CPU, mbufs allocated during runs, and ephemeral
     budget overruns.  Bare int-ref adds on the run path, shared with
     the registry when one is attached. *)
  h_cpu : int ref;
  h_allocs : int ref;
  h_terms : int ref;
  h_fails : int ref;  (* ephemeral handler crashes (not budget overruns) *)
  h_quars : int ref;  (* times this handler was quarantine-evicted *)
}

(* Handler lifecycle (the hot-swap protocol's per-handler state):

     Staged --activate--> Active --uninstall--> gone   (live <- false)
                             |
                             '--retire (uninstall under an open retire
                                scope, queued deliveries pending)-->
                          Retired --last queued delivery drains-->
                                   gone (live <- false)

   [Staged] handlers exist only in the staging scope's thunk list — the
   event table never sees them, so dispatch gates need no filtering.
   [Retired] handlers have left the table (no new delivery can reach
   them) but keep [live = true] until every delivery queued before the
   flip has run: that is the zero-drop guarantee. *)
type hstate = Staged | Active | Retired

type 'a handler = {
  hid : int;
  label : string;
  hgen : int;           (* reinstall generation of this label *)
  guard : 'a -> bool;
  gcost : Sim.Stime.t;  (* extra per-evaluation cost (interpreted filters) *)
  hkeys : int list;     (* every key the guard pins (sorted, distinct) *)
  hexact : bool;        (* guard ≡ its keys: a proven path skips it *)
  cacheable : bool;     (* guard is a pure function of the flow signature *)
  hbudget : Verifier.budget option; (* certified static resource bound *)
  kind : 'a kind;
  hs : hstats;
  mutable state : hstate;
  mutable pending : int; (* delivery work items queued but not yet run *)
  mutable live : bool;  (* flipped off by uninstall: delivery work items
                           queued before the uninstall check this instead
                           of re-hashing into the event table *)
  (* Quarantine window snapshot: the ledger's values when the current
     enforcement window opened; the handler is evicted when the delta
     exceeds the event's [Verifier.quarantine] limits. *)
  mutable qw_start : int;
  mutable qw_cpu : int;
  mutable qw_allocs : int;
  mutable qw_terms : int;
}

(* --- merged dispatch tree ----------------------------------------------
   DPF-style cross-filter compilation: all of an event's keyed handlers
   merged into one decision tree over the key dimensions (EtherType, IP
   protocol, ports — [Filter.key_tag] order; generic events use
   [key lsr 16]).  Each switch tests one dimension's payload value
   against an open-addressed jump table; each leaf holds the exact
   handler set for that path.  Every raise makes one walk: handlers
   whose guard is *exactly* its keys ([hexact]) are proven matches at
   their leaves and their closures are never called; inexact keyed
   handlers appear at their leaves as residuals (closure still
   consulted); unkeyed handlers, and keyed ones whose keys the tree
   cannot express, are residuals at every leaf.  Wildcard handlers are
   cross-producted into every value child, so a walk never needs
   backtracking.  Subtrees are hash-consed on (remaining dimensions,
   handler set), which is the prefix sharing: paths that agree on the
   handlers they can still match share one subtree.

   Soundness: a keyed handler's install contract says its guard rejects
   any payload not presenting all its keys, so pruning it off
   non-matching paths only skips guards that would have said no; an
   [hexact] handler's contract additionally says the guard *accepts*
   any payload presenting them, so the proven path may skip the yes.
   The walk reads at most one value per dimension, which is exactly
   what the vectored extractor ([set_keyvfn]) presents. *)

type 'a tleaf = {
  tl_exact : 'a handler array;  (* proven matches, hid order *)
  tl_resid : 'a handler array;  (* residual guards to evaluate, hid order *)
  tl_cacheable : bool;          (* every handler here is [cacheable] *)
}

type 'a tnode =
  | Tleaf of 'a tleaf
  | Tswitch of {
      ts_dim : int;              (* key dimension this switch tests *)
      ts_keys : int array;       (* open-addressed values, -1 = empty *)
      ts_kids : 'a tnode array;  (* child for ts_keys.(i) *)
      ts_mask : int;             (* Array.length ts_keys - 1 (power of 2) *)
      ts_default : 'a tnode;     (* value not in the table / dim absent *)
    }

type 'a tree = {
  tr_root : 'a tnode;
  tr_nodes : int;   (* switches + distinct leaves *)
  tr_depth : int;   (* longest switch chain *)
  tr_ndims : int;   (* scratch slots a walk reads: max key dim + 1 *)
  mutable tr_visited : int;
      (* switches the last walk traversed — an out-parameter of
         [tree_walk] so the hot path returns the leaf unboxed
         (dispatchers are single-domain, so this cannot race) *)
}

(* Queued dispatcher work: the second half of a raise (the demux, run
   when its modelled cost completes) and one handler invocation.  The
   records are recycled through per-event {!Sim.Stash}es, and the thunk
   handed to the CPU ([dm_run] / [dl_run]) is a closure over the record
   itself, built once with it, so queueing a demux or a delivery
   allocates nothing in steady state.  A refill writes only the fields
   that change: each pointer store into a recycled record is a write
   barrier, and most refills carry the same flow, override and leaf as
   the record's last use. *)
type 'a demux = {
  mutable dm_v : 'a;
  mutable dm_flow : flow;
  mutable dm_over : Sim.Cpu.prio option;
  mutable dm_leaf : 'a tleaf;  (* the raise-time walk's leaf *)
  mutable dm_gen : int;        (* generation that leaf was found at *)
  mutable dm_run : unit -> unit;
}

type 'a invocation = {
  mutable dl_h : 'a handler;
  mutable dl_v : 'a;
  mutable dl_flow : flow;
  mutable dl_over : Sim.Cpu.prio option;
  mutable dl_cost : Sim.Stime.t;  (* modelled run cost (plain handlers) *)
  mutable dl_plan : Ephemeral.plan option;  (* ephemeral handlers *)
  mutable dl_run : unit -> unit;
}

(* Hops a replay has claimed for an event's nested raises, oldest
   first, as (payload, position in the replay's hops), and the runner the
   replay queues to run the oldest.  The arrays grow on demand and every
   later replay reuses them; a consumed slot keeps pointing at its
   payload until it is reused. *)
type 'a claims = {
  mutable cl_v : 'a array;
  mutable cl_pos : int array;
  mutable cl_head : int;
  mutable cl_tail : int;
  mutable cl_run : unit -> Sim.Stime.t;  (* built at the first claim *)
}

(* Handlers by hid.  The replay looks a handler up per hop, so the table
   compares ints, never polymorphically; [Int.hash] is [Hashtbl.hash],
   so folds visit handlers in the generic table's order. *)
module Hids = Hashtbl.Make (Int)

type 'a event = {
  disp : t;
  ename : string;
  uid : int;                                  (* hop identity across events *)
  gen : int ref;                              (* bumped on any churn *)
  mutable mode : delivery;
  table : 'a handler Hids.t;                 (* hid -> handler; the registry *)
  mutable keyvfn : ('a -> int array -> unit) option;
      (* key extractor: fills scratch slot [d] with dimension [d]'s
         value or -1, allocation-free *)
  mutable kv_dims : int;                      (* dims the keyvfn fills *)
  mutable scratch : int array;                (* per-event key-value probe *)
  mutable sigfn : ('a -> Bytes.t -> bool) option;
      (* flow-signature writer, roots only *)
  mutable sig_key : Bytes.t;   (* the writer's scratch, one key long *)
  claims : 'a claims;          (* hops claimed during a replay *)
  mutable framefn : ('a -> Packet.Mbuf.ro Packet.Mbuf.t) option;
      (* the payload's frame: leased while work on it is queued, and
         read for its flight-record mark *)
  entries : hop array Clock_cache.t;        (* flow signature -> chain *)
  mutable next_hid : int;
  label_gens : (string, int) Hashtbl.t;
      (* reinstall count per handler label: same-labeled reinstalls get
         fresh ledger counters instead of merging into the old ones *)
  mutable policy : Verifier.policy option;    (* install-time admission *)
  mutable quarantine : Verifier.quarantine option; (* runtime eviction *)
  mutable tree : 'a tree option;              (* compiled merged tree *)
  mutable tree_gen : int;      (* generation [tree] was compiled at *)
  ev_raises : int ref;
  ev_cached : int ref;    (* root raises served from the flow-path cache *)
  ev_tree : int ref;      (* raises served by a merged-tree walk *)
  tr_rebuilds : int ref;
  tr_resid_evals : int ref;
  demuxes : 'a demux Sim.Stash.t;
  deliveries : 'a invocation Sim.Stash.t;
}

let info_of_event ev =
  let handlers =
    Hids.fold (fun _ h acc -> h :: acc) ev.table []
    |> List.sort (fun a b -> compare a.hid b.hid)
    |> List.map (fun h ->
           {
             hi_id = h.hid;
             hi_label = h.label;
             hi_gen = h.hgen;
             hi_key = (match h.hkeys with [] -> None | k :: _ -> Some k);
             hi_ephemeral = (match h.kind with Eph _ -> true | Plain _ -> false);
             hi_budget = h.hbudget;
             hi_guard_hits = !(h.hs.h_hits);
             hi_guard_misses = !(h.hs.h_misses);
             hi_runs = !(h.hs.h_runs);
             hi_cpu_ns = !(h.hs.h_cpu);
             hi_allocs = !(h.hs.h_allocs);
             hi_terminations = !(h.hs.h_terms);
             hi_failures = !(h.hs.h_fails);
             hi_quarantines = !(h.hs.h_quars);
             hi_lat =
               (match h.hs.h_lat with
               | Some hist -> Some (Observe.Histogram.snapshot hist)
               | None -> None);
           })
  in
  {
    ei_name = ev.ename;
    ei_mode = ev.mode;
    ei_indexed = Option.is_some ev.keyvfn;
    ei_generation = !(ev.gen);
    ei_cache_entries = Clock_cache.length ev.entries;
    ei_tree =
      (match ev.tree with
      | Some tr ->
          Some
            {
              ti_nodes = tr.tr_nodes;
              ti_depth = tr.tr_depth;
              ti_rebuilds = !(ev.tr_rebuilds);
              ti_raises = !(ev.ev_tree);
              ti_residual_evals = !(ev.tr_resid_evals);
            }
      | None -> None);
    ei_handlers = handlers;
  }

let dump t = List.rev_map (fun f -> f ()) t.introspectors

let name ev = ev.ename
let mode ev = ev.mode

(* Anything that can change what a raise would deliver — or what a guard
   along a cached path would answer — bumps the event's generation,
   invalidating every cached chain that runs through it. *)
let touch ev = incr ev.gen

let set_mode ev m =
  ev.mode <- m;
  touch ev

let set_keyvfn ev ~dims kvf =
  if dims < 1 then invalid_arg "Dispatcher.set_keyvfn: dims must be >= 1";
  ev.keyvfn <- Some kvf;
  ev.kv_dims <- dims;
  if Array.length ev.scratch < dims then ev.scratch <- Array.make dims (-1);
  touch ev

let set_sigfn ev ~len sf =
  if len < 1 then invalid_arg "Dispatcher.set_sigfn: len must be >= 1";
  ev.sig_key <- Bytes.create len;
  ev.sigfn <- Some sf

(* Naming the frame cannot change what a raise delivers, so no
   generation bump. *)
let set_framefn ev ff = ev.framefn <- Some ff

(* The dispatcher's lease on a payload's frame: one hold per queued
   demux or delivery, released once that step has run. *)
let hold_frame ev v =
  match ev.framefn with Some ff -> Packet.Mbuf.hold (ff v) | None -> ()

let release_frame ev v =
  match ev.framefn with Some ff -> Packet.Mbuf.release (ff v) | None -> ()

let generation ev = !(ev.gen)
let cache_entries ev = Clock_cache.length ev.entries
let handler_count ev = Hids.length ev.table

(* State-aware uninstall.  An [Active] handler leaves the event table
   immediately — no new raise can select it — but what happens to its
   already-queued deliveries depends on the dispatcher's retire scope:
   outside one (plain uninstall), [live] flips off and queued work items
   skip the body, exactly the old semantics; inside one (a hot-swap
   flip), the handler moves to [Retired] with [live] still true so every
   delivery queued before the flip drains on the old generation. *)
let uninstall_h ev h =
  match h.state with
  | Staged ->
      (* cancelled before activation: the commit thunk checks [live] *)
      h.live <- false
  | Retired ->
      (* explicit uninstall/fault of a draining handler kills the
         remaining queued runs; drain bookkeeping still completes *)
      h.live <- false
  | Active -> (
      Hids.remove ev.table h.hid;
      touch ev;
      match ev.disp.retiring with
      | Some acc when h.pending > 0 ->
          h.state <- Retired;
          acc.ra_retired <- acc.ra_retired + 1;
          acc.ra_inflight <- acc.ra_inflight + h.pending;
          ev.disp.swap_pending <- ev.disp.swap_pending + h.pending
      | Some acc ->
          acc.ra_retired <- acc.ra_retired + 1;
          h.live <- false
      | None -> h.live <- false)

(* Per-handler metric names are keyed by (label, reinstall generation):
   generation 0 keeps the plain name, later generations append "#N" — so
   a hot-swapped replacement starts a fresh ledger instead of inheriting
   the retired generation's totals. *)
let ledger_prefix ev label gen =
  let qual = if gen = 0 then label else label ^ "#" ^ string_of_int gen in
  "spin." ^ ev.ename ^ "." ^ qual

let hstats_for disp ev label gen =
  let prefix = ledger_prefix ev label gen in
  {
    h_hits = mkref disp.reg (prefix ^ ".guard_hits");
    h_misses = mkref disp.reg (prefix ^ ".guard_misses");
    h_runs = mkref disp.reg (prefix ^ ".runs");
    h_lat =
      (match disp.reg with
      | Some r -> Some (Observe.Registry.histogram r (prefix ^ ".run_ns"))
      | None -> None);
    h_cpu = mkref disp.reg (prefix ^ ".cpu_ns");
    h_allocs = mkref disp.reg (prefix ^ ".mbuf_allocs");
    h_terms = mkref disp.reg (prefix ^ ".terminations");
    h_fails = mkref disp.reg (prefix ^ ".failures");
    h_quars = mkref disp.reg (prefix ^ ".quarantines");
  }

exception
  Install_rejected of {
    event : string;
    label : string;
    violation : Verifier.violation;
  }

let add_handler ev ?label ?ops ~cacheable ~exact guard gcost keys kind =
  let hid = ev.next_hid in
  ev.next_hid <- hid + 1;
  let label =
    match label with Some l -> l | None -> "h" ^ string_of_int hid
  in
  let hbudget = Option.map Verifier.infer ops in
  (* Load-time admission: the declared budget (or its absence) must
     satisfy the event's policy before any of the handler's code can
     run.  Raised synchronously out of [install], so a rejected
     extension's linkage fails cleanly. *)
  (match ev.policy with
  | None -> ()
  | Some p -> (
      match Verifier.admit p hbudget with
      | Ok () -> ()
      | Error violation ->
          Stdlib.raise (Install_rejected { event = ev.ename; label; violation })));
  let hgen =
    let g =
      match Hashtbl.find_opt ev.label_gens label with
      | None -> 0
      | Some g -> g + 1
    in
    Hashtbl.replace ev.label_gens label g;
    g
  in
  let hs = hstats_for ev.disp ev label hgen in
  (* Ephemeral handlers are never replayed: their budget accounting and
     transactional termination are per-invocation dispatcher work. *)
  let cacheable =
    match kind with Eph _ -> false | Plain _ -> cacheable
  in
  let hkeys = List.sort_uniq compare keys in
  (* exactness is a claim about the keys; with none there is nothing a
     tree walk could have proven *)
  let hexact = exact && hkeys <> [] in
  let h =
    {
      hid;
      label;
      hgen;
      guard;
      gcost;
      hkeys;
      hexact;
      cacheable;
      hbudget;
      kind;
      hs;
      state = Staged;
      pending = 0;
      live = true;
      qw_start = 0;
      qw_cpu = 0;
      qw_allocs = 0;
      qw_terms = 0;
    }
  in
  let activate () =
    if h.live && h.state = Staged then begin
      h.state <- Active;
      (* the first quarantine enforcement window opens at activation *)
      h.qw_start <- now_ns ev.disp;
      h.qw_cpu <- !(h.hs.h_cpu);
      h.qw_allocs <- !(h.hs.h_allocs);
      h.qw_terms <- !(h.hs.h_terms);
      Hids.replace ev.table hid h;
      touch ev
    end
  in
  (match ev.disp.staging with
  | None -> activate ()
  | Some scope -> scope := (activate, fun () -> h.live <- false) :: !scope);
  fun () -> uninstall_h ev h

let no_guard _ = true

let install ev ?(guard = no_guard) ?(keys = []) ?(exact = false)
    ?(gcost = Sim.Stime.zero) ?dyncost ?(cacheable = false) ?label ?ops ~cost
    fn =
  add_handler ev ?label ?ops ~cacheable ~exact guard gcost keys
    (Plain { cost; dyncost; fn })

let install_ephemeral ev ?(guard = no_guard) ?(keys = []) ?(exact = false)
    ?(gcost = Sim.Stime.zero) ?label ?ops ?budget fn =
  (* A certified op list supplies the default runtime budget: the
     static bound becomes the enforcement ceiling unless the installer
     asks for a tighter one. *)
  let budget =
    match (budget, ops) with
    | (Some _ as b), _ -> b
    | None, Some ops -> Some (Verifier.cost (Verifier.infer ops))
    | None, None -> None
  in
  add_handler ev ?label ?ops ~cacheable:false ~exact guard gcost keys
    (Eph { budget; fn })

(* --- lifecycle scopes (hot-swap protocol) ------------------------------
   [Linker.replace] drives these: stage the new generation, link it
   (installs land as thunks), commit (all new handlers become visible in
   one step, before any raise can observe a half-linked extension), open
   a retire scope, unlink the old generation (its in-flight deliveries
   drain), close the scope.  Scopes are dispatcher-wide and must not
   nest. *)

let begin_staging d =
  if d.staging <> None then
    invalid_arg "Dispatcher.begin_staging: staging scope already open";
  d.staging <- Some (ref [])

let commit_staging d =
  match d.staging with
  | None -> invalid_arg "Dispatcher.commit_staging: no staging scope open"
  | Some scope ->
      d.staging <- None;
      let entries = List.rev !scope in
      List.iter (fun (activate, _) -> activate ()) entries;
      List.length entries

let abort_staging d =
  match d.staging with
  | None -> ()
  | Some scope ->
      d.staging <- None;
      List.iter (fun (_, cancel) -> cancel ()) (List.rev !scope)

let begin_retiring d =
  if d.retiring <> None then
    invalid_arg "Dispatcher.begin_retiring: retire scope already open";
  d.retiring <- Some { ra_retired = 0; ra_inflight = 0 }

let end_retiring d =
  match d.retiring with
  | None -> invalid_arg "Dispatcher.end_retiring: no retire scope open"
  | Some acc ->
      d.retiring <- None;
      incr d.swaps;
      (acc.ra_retired, acc.ra_inflight)

let set_policy ev p = ev.policy <- p
let set_quarantine ev q = ev.quarantine <- q

(* --- key-value extraction ---------------------------------------------
   Decomposition of an encoded key into (dimension, value).  For
   [Filter] keys this is [key_tag]/value; for generic raw int keys the
   decomposition is the identity seen from both sides (handler keys and
   extractor output decompose the same way), so the tree's dimension
   model is sound for them too. *)
let key_dim k = k lsr 16
let key_val k = k land 0xffff

(* Fill the event's scratch array with the payload's per-dimension
   values (-1 = absent) and return it.  The extractor writes every
   dimension by contract, so the scratch needs no wipe first; slots past
   [kv_dims] keep the -1 they were created with. *)
let fill_keyvals ev v ndims =
  let need = Int.max 1 (Int.max ndims ev.kv_dims) in
  if Array.length ev.scratch < need then ev.scratch <- Array.make need (-1);
  let s = ev.scratch in
  (match ev.keyvfn with Some kvf -> kvf v s | None -> ());
  s

(* --- merged-tree compilation ------------------------------------------ *)

(* Open-addressed jump-table probe: returns the slot holding [v] or the
   first empty slot.  Power-of-two table, Fibonacci-ish multiplicative
   hash, linear probing; load factor <= 1/2 keeps probes short. *)
let rec jump_probe keys mask v i =
  let k = Array.unsafe_get keys i in
  if k = v || k = -1 then i else jump_probe keys mask v ((i + 1) land mask)

let jump_index keys mask v = jump_probe keys mask v ((v * 0x9e3779b1) land mask)

(* Keys the tree can switch on: a dimension below this bound and a
   non-negative value.  The walk's scratch array is sized by the max
   dimension, so a generic event with huge raw keys should not cost a
   huge probe; a handler with any other key is a residual everywhere. *)
let max_tree_dims = 64

let tree_key k = k >= 0 && key_dim k < max_tree_dims

(* The one compile rule.  Switches are built only when the event has a
   key extractor, more than one live handler and at least one handler
   whose keys the tree can express; otherwise the tree is a single leaf
   holding every live handler as a residual, in hid order, which charges
   exactly the plain scan's [dispatch + guard * n]. *)
let build_tree ev =
  let all =
    Hids.fold (fun _ h acc -> h :: acc) ev.table []
    |> List.sort (fun a b -> compare a.hid b.hid)
  in
  let switchable =
    Option.is_some ev.keyvfn && List.compare_length_with all 1 > 0
  in
  let keyed, unkeyed =
    List.partition
      (fun h -> switchable && h.hkeys <> [] && List.for_all tree_key h.hkeys)
      all
  in
  (* the single value a handler requires on dimension [d], if any *)
  let requires h d =
    List.fold_left
      (fun acc k -> if key_dim k = d then Some (key_val k) else acc)
      None h.hkeys
  in
  (* a handler pinning two different values on one dimension can never
     match any payload (the walk reads one value per dimension) — it
     contributes to no leaf *)
  let satisfiable h =
    List.for_all (fun k -> requires h (key_dim k) = Some (key_val k)) h.hkeys
  in
  let keyed = List.filter satisfiable keyed in
  let dims =
    List.concat_map (fun h -> List.map key_dim h.hkeys) keyed
    |> List.sort_uniq compare
  in
  let nodes = ref 0 in
  (* hash-consing memo: (remaining-dim count, handler hids) -> subtree.
     Dimensions are consumed in one fixed order, so the remaining-dims
     suffix is fully determined by its length. *)
  let memo : (string, 'a tnode) Hashtbl.t = Hashtbl.create 64 in
  let merge_by_hid a b = List.merge (fun x y -> compare x.hid y.hid) a b in
  let mk_leaf hs =
    incr nodes;
    let exact, inexact = List.partition (fun h -> h.hexact) hs in
    let resid = merge_by_hid inexact unkeyed in
    Tleaf
      {
        tl_exact = Array.of_list exact;
        tl_resid = Array.of_list resid;
        tl_cacheable =
          List.for_all (fun h -> h.cacheable) exact
          && List.for_all (fun h -> h.cacheable) resid;
      }
  in
  let rec build dims hs =
    let mkey =
      String.concat ","
        (string_of_int (List.length dims)
        :: List.map (fun h -> string_of_int h.hid) hs)
    in
    match Hashtbl.find_opt memo mkey with
    | Some n -> n
    | None ->
        let n =
          match dims with
          | [] -> mk_leaf hs
          | d :: rest -> (
              match List.filter (fun h -> requires h d <> None) hs with
              | [] -> build rest hs (* no handler tests this dimension *)
              | constrained ->
                  let values =
                    List.filter_map (fun h -> requires h d) constrained
                    |> List.sort_uniq compare
                  in
                  (* wildcards on [d] flow into every child (the
                     cross-product that makes the walk single-path) *)
                  let default =
                    build rest (List.filter (fun h -> requires h d = None) hs)
                  in
                  let cases =
                    List.map
                      (fun v ->
                        ( v,
                          build rest
                            (List.filter
                               (fun h ->
                                 match requires h d with
                                 | None -> true
                                 | Some v' -> v' = v)
                               hs) ))
                      values
                  in
                  incr nodes;
                  let size =
                    let want = 2 * List.length cases in
                    let rec pow2 p = if p >= want then p else pow2 (p * 2) in
                    pow2 4
                  in
                  let keys = Array.make size (-1) in
                  let kids = Array.make size default in
                  let mask = size - 1 in
                  List.iter
                    (fun (v, node) ->
                      let i = jump_index keys mask v in
                      keys.(i) <- v;
                      kids.(i) <- node)
                    cases;
                  Tswitch
                    {
                      ts_dim = d;
                      ts_keys = keys;
                      ts_kids = kids;
                      ts_mask = mask;
                      ts_default = default;
                    })
        in
        Hashtbl.add memo mkey n;
        n
  in
  let root = build dims keyed in
  let rec depth = function
    | Tleaf _ -> 0
    | Tswitch s ->
        1
        + Array.fold_left
            (fun acc kid -> max acc (depth kid))
            (depth s.ts_default) s.ts_kids
  in
  {
    tr_root = root;
    tr_nodes = !nodes;
    tr_depth = depth root;
    tr_ndims = List.fold_left max (-1) dims + 1;
    tr_visited = 0;
  }

(* The compiled tree is memoized behind the event's generation counter —
   the same counter the flow-path cache invalidates on — so any
   install/uninstall/mode/extractor churn recompiles lazily on the next
   raise. *)
let tree_for ev =
  match ev.tree with
  | Some tr when ev.tree_gen = !(ev.gen) -> tr
  | _ ->
      let tr = build_tree ev in
      ev.tree <- Some tr;
      ev.tree_gen <- !(ev.gen);
      incr ev.tr_rebuilds;
      tr

(* One walk: at each switch read the payload's value for that dimension
   from the scratch array and jump.  Returns the leaf and leaves the
   number of switches visited (the [costs.tree_node] multiplier) in
   [tr_visited].  The loop is a top-level function so a walk allocates
   no closure. *)
let rec walk_from tr s n visited =
  match n with
  | Tleaf l ->
      tr.tr_visited <- visited;
      l
  | Tswitch sw ->
      let value =
        if sw.ts_dim < Array.length s then Array.unsafe_get s sw.ts_dim
        else -1
      in
      let next =
        if value < 0 then sw.ts_default
        else
          let i = jump_index sw.ts_keys sw.ts_mask value in
          if Array.unsafe_get sw.ts_keys i = value then
            Array.unsafe_get sw.ts_kids i
          else sw.ts_default
      in
      walk_from tr s next (visited + 1)

(* A one-leaf tree reads no key, so its walk skips the extractor. *)
let tree_walk ev tr v =
  match tr.tr_root with
  | Tleaf l ->
      tr.tr_visited <- 0;
      l
  | root -> walk_from tr (fill_keyvals ev v tr.tr_ndims) root 0

let tree_raises ev = !(ev.ev_tree)

(* Force-compile (if stale) and render the event's tree for
   introspection — the CLI's [dispatch --tree] view. *)
let compiled_tree ev =
  let label_of h = (h.hid, h.label) in
  let rec view = function
    | Tleaf l ->
        Tree_leaf
          {
            tv_exact = Array.to_list (Array.map label_of l.tl_exact);
            tv_resid = Array.to_list (Array.map label_of l.tl_resid);
          }
    | Tswitch sw ->
        let cases = ref [] in
        Array.iteri
          (fun i k ->
            if k >= 0 then cases := (k, view sw.ts_kids.(i)) :: !cases)
          sw.ts_keys;
        Tree_switch
          {
            tv_dim = sw.ts_dim;
            tv_cases = List.sort (fun (a, _) (b, _) -> compare a b) !cases;
            tv_default = view sw.ts_default;
          }
  in
  view (tree_for ev).tr_root

(* Placeholder claim runner of an event that has not claimed a hop yet
   (the real one needs the replay functions defined further down). *)
let no_runner () = Sim.Stime.zero

(* Defined below [compiled_tree] so the per-event viewer closure it
   registers can force-compile the tree on demand. *)
let event disp ?(mode = Interrupt) ename =
  let uid = disp.next_uid in
  disp.next_uid <- uid + 1;
  let ev =
    {
      disp;
      ename;
      uid;
      gen = ref 0;
      mode;
      table = Hids.create 8;
      keyvfn = None;
      kv_dims = 0;
      scratch = [||];
      sigfn = None;
      sig_key = Bytes.empty;
      claims =
        { cl_v = [||]; cl_pos = [||]; cl_head = 0; cl_tail = 0;
          cl_run = no_runner };
      framefn = None;
      entries =
        Clock_cache.create ~capacity:cache_capacity
          ~evictions:disp.pc_evictions ();
      next_hid = 0;
      label_gens = Hashtbl.create 8;
      policy = None;
      quarantine = None;
      tree = None;
      tree_gen = -1;
      ev_raises = mkref disp.reg ("spin." ^ ename ^ ".raises");
      ev_cached = mkref disp.reg ("spin." ^ ename ^ ".cached_raises");
      ev_tree = mkref disp.reg ("spin." ^ ename ^ ".tree.raises");
      tr_rebuilds = mkref disp.reg ("spin." ^ ename ^ ".tree.rebuilds");
      tr_resid_evals =
        mkref disp.reg ("spin." ^ ename ^ ".tree.residual_evals");
      demuxes = Sim.Stash.create ();
      deliveries = Sim.Stash.create ();
    }
  in
  disp.introspectors <- (fun () -> info_of_event ev) :: disp.introspectors;
  disp.tree_viewers <-
    (fun () -> (ev.ename, compiled_tree ev)) :: disp.tree_viewers;
  (match disp.reg with
  | Some r ->
      Observe.Registry.gauge r
        ("spin." ^ ename ^ ".cache_occupancy")
        (fun () -> Clock_cache.length ev.entries);
      Observe.Registry.gauge r
        ("spin." ^ ename ^ ".tree.depth")
        (fun () -> match ev.tree with Some tr -> tr.tr_depth | None -> 0);
      Observe.Registry.gauge r
        ("spin." ^ ename ^ ".tree.nodes")
        (fun () -> match ev.tree with Some tr -> tr.tr_nodes | None -> 0)
  | None -> ());
  ev

let tree_views t = List.rev_map (fun f -> f ()) t.tree_viewers

let emit_span d event =
  Observe.Trace.emit d.trace { Observe.Trace.at_ns = now_ns d; event }

(* Fault containment: extension code that raises must not take the
   kernel down.  The typesafe language already rules out wild memory
   access; runtime exceptions are caught here, counted (globally and per
   handler), Drop-spanned with the exception, and the faulting handler
   is uninstalled — the extension model's equivalent of killing the
   offending extension rather than the system.  The per-handler counter
   is registered at the first fault, so handlers that never fault cost
   the registry nothing. *)
let fault ev h exn =
  let d = ev.disp in
  incr d.faults;
  incr (mkref d.reg (ledger_prefix ev h.label h.hgen ^ ".faults"));
  if Observe.Trace.active d.trace then
    emit_span d
      (Observe.Trace.Drop
         {
           scope = "spin." ^ ev.ename ^ "." ^ h.label;
           reason = "fault: " ^ Printexc.to_string exn;
         });
  uninstall_h ev h

(* Asynchronous exceptions signal resource exhaustion of the *kernel*,
   not a misbehaving extension — containing them would let the system
   limp on with its runtime in an unknown state.  They propagate;
   everything else is an extension fault. *)
let contain ev h f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> Stdlib.raise e
  | exn -> fault ev h exn

(* Runtime budget enforcement (the quarantine half of the verifier):
   called after a run's ledger update.  The window is tumbling — the
   snapshot resets once [q_window_ns] has elapsed — so an extension is
   evicted iff its measured usage inside one enforcement window exceeds
   the limits.  Eviction is atomic with respect to dispatch: the
   handler leaves the table and the generation bump invalidates every
   cached chain through it; deliveries already queued to it still run
   (they were admitted before the eviction). *)
let quarantine_check ev h =
  match ev.quarantine with
  | None -> ()
  | Some q ->
      let d = ev.disp in
      (* An expired window resets BEFORE the limit check: the deltas
         below must have accrued within one window's span to be
         comparable to the per-window limits.  Anything the handler did
         while no window was current (the policy was attached after it
         activated, or it idled across a boundary) is forgiven — a
         handler that blows the limit inside a live window is still
         caught at the very run that crosses it, because this check
         follows every run. *)
      let now = now_ns d in
      if now - h.qw_start >= q.Verifier.q_window_ns then begin
        h.qw_start <- now;
        h.qw_cpu <- !(h.hs.h_cpu);
        h.qw_allocs <- !(h.hs.h_allocs);
        h.qw_terms <- !(h.hs.h_terms)
      end;
      let over =
        !(h.hs.h_cpu) - h.qw_cpu > q.Verifier.q_max_cpu_ns
        || !(h.hs.h_allocs) - h.qw_allocs > q.Verifier.q_max_allocs
        || !(h.hs.h_terms) - h.qw_terms > q.Verifier.q_max_terminations
      in
      if over then begin
        incr h.hs.h_quars;
        incr d.quarantines;
        if Observe.Trace.active d.trace then
          emit_span d
            (Observe.Trace.Drop
               {
                 scope = "spin." ^ ev.ename ^ "." ^ h.label;
                 reason = "quarantine";
               });
        uninstall_h ev h
      end

(* Flight-recorder stage emission.  The mark is the packet id stamped on
   the frame ([ev.framefn]) at ingress; 0 means not sampled, so an
   unsampled packet pays one closure call and compare per site and a
   detached/disabled recorder pays one load and branch. *)
let flight_note_raise d ev v =
  match d.flight with
  | Some fl when Observe.Flight.enabled fl -> (
      match ev.framefn with
      | Some ff ->
          let pkt = Packet.Mbuf.mark (ff v) in
          if pkt > 0 then begin
            let at_ns = now_ns d in
            Observe.Flight.note fl ~pkt ~at_ns
              ~dur_ns:(Observe.Flight.since_ingress fl ~pkt ~at_ns)
              (Observe.Flight.Raise { event = ev.ename })
          end
      | None -> ())
  | _ -> ()

let flight_note_run d ev v h ~dur_ns =
  match d.flight with
  | Some fl when Observe.Flight.enabled fl -> (
      match ev.framefn with
      | Some ff ->
          let pkt = Packet.Mbuf.mark (ff v) in
          if pkt > 0 then
            Observe.Flight.note fl ~pkt ~at_ns:(now_ns d) ~dur_ns
              (Observe.Flight.Handler { event = ev.ename; label = h.label })
      | None -> ())
  | _ -> ()

(* --- recording bookkeeping --------------------------------------------
   A recording commits only once the delivery has fully drained: every
   scheduled continuation (demux and handler runs, including nested
   raises) holds a [rec_pending] reference, and the last one out
   finalizes.  Finalization re-validates every hop's generation — an
   install/uninstall that landed *during* the delivery discards the
   recording instead of committing a chain the churn already
   invalidated. *)

let rec_finish d r =
  if r.rec_ok then begin
    let hops = List.rev r.rec_hops in
    if List.for_all hop_valid hops then r.rec_commit (Array.of_list hops)
    else begin
      incr d.pc_invalidations;
      if Observe.Trace.active d.trace then
        emit_span d
          (Observe.Trace.Cache_invalidate
             { event = r.rec_ename; reason = "churn-during-recording" })
    end
  end

let flow_enter = function
  | Recording r -> r.rec_pending <- r.rec_pending + 1
  | No_flow -> ()

let flow_leave d = function
  | Recording r ->
      r.rec_pending <- r.rec_pending - 1;
      if r.rec_pending = 0 then rec_finish d r
  | No_flow -> ()

(* The priority a raise runs at: the event's delivery mode unless an
   override is in force (the demoted polled path). *)
let prio_of ev over = match over with Some p -> p | None -> ev.mode

(* Drain bookkeeping shared by both handler kinds: every queued
   invocation holds a [pending] reference; the last one out of a
   [Retired] handler finalizes it (live <- false), which is the swap
   protocol's "old generation fully drained" edge. *)
let delivery_done d h =
  h.pending <- h.pending - 1;
  if h.state = Retired then begin
    d.swap_pending <- d.swap_pending - 1;
    if h.pending = 0 then h.live <- false
  end

(* The body runs with the delivery's flow and override in force and
   both are cleared after it.  They usually hold [No_flow] and [None]
   already, and a store into the long-lived dispatcher is a write
   barrier, so each field is written only when it changes. *)
let run_plain ev v h fn flow over total =
  let d = ev.disp in
  if d.flow != flow then d.flow <- flow;
  if d.prio_override != over then d.prio_override <- over;
  let a0 = Packet.Mbuf.total_allocated () in
  (try fn v with
  | (Stack_overflow | Out_of_memory) as e -> Stdlib.raise e
  | exn -> fault ev h exn);
  if d.prio_override != None then d.prio_override <- None;
  if d.flow != No_flow then d.flow <- No_flow;
  incr h.hs.h_runs;
  let run_ns = Sim.Stime.to_ns total in
  h.hs.h_cpu := !(h.hs.h_cpu) + run_ns;
  h.hs.h_allocs := !(h.hs.h_allocs) + (Packet.Mbuf.total_allocated () - a0);
  (match h.hs.h_lat with
  | Some hist -> Observe.Histogram.record hist run_ns
  | None -> ());
  flight_note_run d ev v h ~dur_ns:run_ns;
  if Observe.Trace.active d.trace then
    emit_span d
      (Observe.Trace.Handler_run
         { event = ev.ename; hid = h.hid; label = h.label; duration_ns = run_ns });
  quarantine_check ev h

let run_eph ev v h plan over =
  let d = ev.disp in
  if d.prio_override != over then d.prio_override <- over;
  let a0 = Packet.Mbuf.total_allocated () in
  contain ev h (fun () ->
      let r = Ephemeral.commit plan in
      incr h.hs.h_runs;
      incr d.eph_commits;
      d.eph_actions := !(d.eph_actions) + r.Ephemeral.committed;
      let run_ns = Sim.Stime.to_ns r.Ephemeral.consumed in
      h.hs.h_cpu := !(h.hs.h_cpu) + run_ns;
      h.hs.h_allocs := !(h.hs.h_allocs) + (Packet.Mbuf.total_allocated () - a0);
      (match h.hs.h_lat with
      | Some hist -> Observe.Histogram.record hist run_ns
      | None -> ());
      flight_note_run d ev v h ~dur_ns:run_ns;
      if r.Ephemeral.terminated then begin
        incr d.terminations;
        incr d.eph_terminated;
        incr h.hs.h_terms
      end;
      if Observe.Trace.active d.trace then
        emit_span d
          (if r.Ephemeral.terminated then
             Observe.Trace.Terminated
               {
                 event = ev.ename;
                 hid = h.hid;
                 label = h.label;
                 committed = r.Ephemeral.committed;
                 total = r.Ephemeral.total;
                 duration_ns = run_ns;
               }
           else
             Observe.Trace.Ephemeral_commit
               {
                 event = ev.ename;
                 hid = h.hid;
                 label = h.label;
                 committed = r.Ephemeral.committed;
                 total = r.Ephemeral.total;
                 duration_ns = run_ns;
               }));
  if d.prio_override != None then d.prio_override <- None;
  quarantine_check ev h

(* A queued invocation comes due.  The record goes back to the stash
   before the body runs, so a nested delivery can reuse it. *)
let run_delivery ev dl =
  let h = dl.dl_h and v = dl.dl_v and flow = dl.dl_flow
  and over = dl.dl_over and total = dl.dl_cost and plan = dl.dl_plan in
  Sim.Stash.put ev.deliveries dl;
  (* skip if uninstalled while this invocation was queued *)
  (if h.live then
     match (h.kind, plan) with
     | Plain { fn; _ }, _ -> run_plain ev v h fn flow over total
     | Eph _, Some plan -> run_eph ev v h plan over
     | Eph _, None -> ());
  delivery_done ev.disp h;
  flow_leave ev.disp flow;
  release_frame ev v

let queue_delivery ev v h flow over prio ~cost plan =
  let dl =
    if not (Sim.Stash.is_empty ev.deliveries) then begin
      let dl = Sim.Stash.take ev.deliveries in
      if dl.dl_h != h then dl.dl_h <- h;
      if dl.dl_v != v then dl.dl_v <- v;
      if dl.dl_flow != flow then dl.dl_flow <- flow;
      if dl.dl_over != over then dl.dl_over <- over;
      dl.dl_cost <- cost;
      if dl.dl_plan != plan then dl.dl_plan <- plan;
      dl
    end
    else begin
      let dl =
        { dl_h = h; dl_v = v; dl_flow = flow; dl_over = over; dl_cost = cost;
          dl_plan = plan; dl_run = ignore }
      in
      dl.dl_run <- (fun () -> run_delivery ev dl);
      dl
    end
  in
  flow_enter flow;
  h.pending <- h.pending + 1;
  hold_frame ev v;
  Sim.Cpu.submit ev.disp.cpu prio ~cost dl.dl_run

let deliver ev v h flow over =
  let d = ev.disp in
  incr d.invocations;
  let prio = prio_of ev over in
  let spawn =
    match ev.mode with
    | Interrupt -> Sim.Stime.zero
    | Thread -> d.costs.thread_spawn
  in
  match h.kind with
  | Plain { cost; dyncost; _ } ->
      let cost =
        match dyncost with
        | None -> cost
        | Some f -> Sim.Stime.add cost (f v)
      in
      queue_delivery ev v h flow over prio ~cost:(Sim.Stime.add spawn cost) None
  | Eph { budget; fn } -> (
      (* The handler body runs at plan time.  Only its own crashes are
         contained (and counted distinctly from budget overruns);
         asynchronous exceptions — Stack_overflow, Out_of_memory — are
         kernel-level resource exhaustion and must propagate. *)
      match
        try Ok (Ephemeral.plan ?budget (fn v)) with
        | (Stack_overflow | Out_of_memory) as e -> Stdlib.raise e
        | e -> Error e
      with
      | Error exn ->
          incr d.eph_failures;
          incr h.hs.h_fails;
          fault ev h exn
      | Ok plan ->
          let r = Ephemeral.planned plan in
          queue_delivery ev v h flow over prio
            ~cost:(Sim.Stime.add spawn r.Ephemeral.consumed)
            (Some plan))

(* A raise's demux comes due.  Demultiplex against the *current*
   registry.  The common case — no churn between the raise and its
   delivery — reuses the leaf phase 1 already found (same generation,
   same tree, same walk).  Otherwise re-walk the rebuilt tree. *)
let tree_demux ev dm =
  let d = ev.disp in
  let v = dm.dm_v and flow = dm.dm_flow and over = dm.dm_over in
  let leaf =
    if !(ev.gen) = dm.dm_gen then dm.dm_leaf
    else tree_walk ev (tree_for ev) v
  in
  Sim.Stash.put ev.demuxes dm;
  let exact = leaf.tl_exact and resid = leaf.tl_resid in
  let recording =
    match flow with
    | Recording r ->
        if ev.mode <> Interrupt || Option.is_some over || not leaf.tl_cacheable
        then r.rec_ok <- false;
        true
    | No_flow -> false
  in
  (* accepting hids, newest first: only a recording needs them *)
  let accepted_rev = ref [] in
  let ne = Array.length exact and nr = Array.length resid in
  let i = ref 0 and j = ref 0 in
  while !i < ne || !j < nr do
    let take_exact =
      !j >= nr || (!i < ne && exact.(!i).hid < resid.(!j).hid)
    in
    if take_exact then begin
      let h = exact.(!i) in
      incr i;
      (* tree-proven match: the walk established every conjunct of
         the guard, so the closure is never called *)
      incr h.hs.h_hits;
      if recording then accepted_rev := h.hid :: !accepted_rev;
      deliver ev v h flow over
    end
    else begin
      let h = resid.(!j) in
      incr j;
      let accepted =
        try h.guard v with
        | (Stack_overflow | Out_of_memory) as e -> Stdlib.raise e
        | exn -> fault ev h exn; false
      in
      if accepted then incr h.hs.h_hits else incr h.hs.h_misses;
      if Observe.Trace.active d.trace then
        emit_span d
          (Observe.Trace.Guard_eval
             { event = ev.ename; hid = h.hid; label = h.label;
               hit = accepted });
      if accepted then begin
        if recording then accepted_rev := h.hid :: !accepted_rev;
        deliver ev v h flow over
      end
    end
  done;
  (match flow with
  | Recording r ->
      if r.rec_ok then
        r.rec_hops <-
          {
            hop_uid = ev.uid;
            hop_gen = ev.gen;
            hop_gen_at = !(ev.gen);
            hop_hids = List.rev !accepted_rev;
          }
          :: r.rec_hops
  | No_flow -> ());
  flow_leave d flow;
  release_frame ev v

(* Graph dispatch of one raise, optionally recording the hop: one walk
   of the event's merged tree finds the leaf; the leaf's [tl_exact]
   handlers are proven matches (no closure call — the walk evaluated
   their guards), its [tl_resid] handlers get a real guard evaluation.
   The two arrays are merged by hid at delivery time so delivery runs
   in install order.  [guard_evals] counts only the residuals.
   [raises]/[ev_raises] are the caller's job (so batch entry points can
   amortize them). *)
let raise_core ?over ev v flow =
  let d = ev.disp in
  let tr = tree_for ev in
  let leaf = tree_walk ev tr v in
  let visited = tr.tr_visited in
  let n_exact = Array.length leaf.tl_exact in
  let n_resid = Array.length leaf.tl_resid in
  d.guard_evals := !(d.guard_evals) + n_resid;
  incr ev.ev_tree;
  ev.tr_resid_evals := !(ev.tr_resid_evals) + n_resid;
  if Observe.Trace.active d.trace then
    emit_span d
      (Observe.Trace.Raise
         {
           event = ev.ename;
           candidates = n_exact + n_resid;
           switches = visited;
         });
  flight_note_raise d ev v;
  let extra_gcost =
    Array.fold_left
      (fun acc h -> Sim.Stime.add acc h.gcost)
      Sim.Stime.zero leaf.tl_resid
  in
  let demux_cost =
    Sim.Stime.add extra_gcost
      (Sim.Stime.add d.costs.dispatch
         (Sim.Stime.add
            (Sim.Stime.mul d.costs.tree_node visited)
            (Sim.Stime.mul d.costs.guard n_resid)))
  in
  let dm =
    if not (Sim.Stash.is_empty ev.demuxes) then begin
      let dm = Sim.Stash.take ev.demuxes in
      if dm.dm_v != v then dm.dm_v <- v;
      if dm.dm_flow != flow then dm.dm_flow <- flow;
      if dm.dm_over != over then dm.dm_over <- over;
      if dm.dm_leaf != leaf then dm.dm_leaf <- leaf;
      dm.dm_gen <- !(ev.gen);
      dm
    end
    else begin
      let dm =
        { dm_v = v; dm_flow = flow; dm_over = over; dm_leaf = leaf;
          dm_gen = !(ev.gen); dm_run = ignore }
      in
      dm.dm_run <- (fun () -> tree_demux ev dm);
      dm
    end
  in
  flow_enter flow;
  hold_frame ev v;
  Sim.Cpu.submit d.cpu (prio_of ev over) ~cost:demux_cost dm.dm_run

(* --- replay ----------------------------------------------------------- *)

let cache_invalidate_span d ename reason =
  if Observe.Trace.active d.trace then
    emit_span d (Observe.Trace.Cache_invalidate { event = ename; reason })

(* Run a recorded hop's handlers directly: no demux, no guards (the
   signature match stands in for them).  Invocation stats, run counters
   and latency histograms are preserved; per-handler [Handler_run]
   spans are not emitted — the single [Cache_hit] span at the root
   carries the chain's hop and handler counts, which is the amortized
   per-packet trace bookkeeping the fast path promises.  Runs
   synchronously in the caller's interrupt context and returns the
   hop's modelled handler cost, which the caller accounts. *)
let rec run_hop_from ev v hids acc =
  match hids with
  | [] -> acc
  | hid :: rest ->
      let acc =
        match Hids.find ev.table hid with
        | { kind = Plain { cost; dyncost; fn }; _ } as h ->
            let d = ev.disp in
            incr d.invocations;
            let a0 = Packet.Mbuf.total_allocated () in
            (try fn v with
            | (Stack_overflow | Out_of_memory) as e -> Stdlib.raise e
            | exn -> fault ev h exn);
            incr h.hs.h_runs;
            let total =
              match dyncost with
              | None -> cost
              | Some f -> Sim.Stime.add cost (f v)
            in
            let run_ns = Sim.Stime.to_ns total in
            h.hs.h_cpu := !(h.hs.h_cpu) + run_ns;
            h.hs.h_allocs :=
              !(h.hs.h_allocs) + (Packet.Mbuf.total_allocated () - a0);
            (match h.hs.h_lat with
            | Some hist -> Observe.Histogram.record hist run_ns
            | None -> ());
            flight_note_run d ev v h ~dur_ns:run_ns;
            quarantine_check ev h;
            Sim.Stime.add acc total
        | { kind = Eph _; _ } -> acc
        | exception Not_found -> acc
      in
      run_hop_from ev v rest acc

let run_hop ev v hids = run_hop_from ev v hids Sim.Stime.zero

(* The chain has diverged from the recording: drop the entry (its key
   is still in the root's scratch, which no raise rewrites during the
   replay) and let this raise and every later one take graph dispatch,
   whose work is queued and runs after the replay with no flow.
   Deliveries already made stand — they were valid when made. *)
let diverge d rp ename =
  rp.rp_live <- false;
  Clock_cache.remove rp.rp_entries (Bytes.unsafe_to_string rp.rp_key);
  incr d.pc_invalidations;
  cache_invalidate_span d ename "divergent-replay"

(* Run the event's oldest claimed hop.  An earlier pending hop's handler
   may have churned the graph between claim and run: fall back to graph
   dispatch for this raise if so. *)
let run_claim ev =
  let d = ev.disp and cl = ev.claims in
  let rp = d.rp in
  let i = cl.cl_head in
  let v = cl.cl_v.(i) and hop = rp.rp_hops.(cl.cl_pos.(i)) in
  if i + 1 = cl.cl_tail then begin
    cl.cl_head <- 0;
    cl.cl_tail <- 0
  end
  else cl.cl_head <- i + 1;
  if rp.rp_live && hop_valid hop then run_hop ev v hop.hop_hids
  else begin
    if rp.rp_live then diverge d rp ev.ename;
    raise_core ev v No_flow;
    Sim.Stime.zero
  end

(* [a] copied into an array twice as long (at least 8), the new slots
   filled with [x]. *)
let grown a n x =
  let b = Array.make (Int.max 8 (2 * n)) x in
  Array.blit a 0 b 0 n;
  b

(* Claim the hop at [pos] for the raise of [v] on [ev]: the payload and
   position join the event's FIFO, and the event's runner joins the
   replay's queue. *)
let claim ev rp v pos =
  let cl = ev.claims in
  if cl.cl_run == no_runner then cl.cl_run <- (fun () -> run_claim ev);
  let i = cl.cl_tail in
  if i = Array.length cl.cl_pos then begin
    cl.cl_v <- grown cl.cl_v i v;
    cl.cl_pos <- grown cl.cl_pos i pos
  end;
  Array.unsafe_set cl.cl_v i v;
  Array.unsafe_set cl.cl_pos i pos;
  cl.cl_tail <- i + 1;
  let q = rp.rp_queued in
  if q = Array.length rp.rp_runs then
    rp.rp_runs <- grown rp.rp_runs q cl.cl_run;
  if Array.unsafe_get rp.rp_runs q != cl.cl_run then
    Array.unsafe_set rp.rp_runs q cl.cl_run;
  rp.rp_queued <- q + 1

(* A nested raise while replaying: claim the next recorded hop if it
   matches this event and is still current, deferring its execution to
   the root driver's queue — graph dispatch queues the nested demux
   behind the current hop's remaining deliveries, so running claimed
   hops after the claiming hop finishes reproduces its hop-major
   delivery order exactly.  On a mismatch the chain has diverged. *)
let replay_step ev v rp =
  let d = ev.disp in
  let pos = rp.rp_claim in
  if
    rp.rp_live
    && pos < Array.length rp.rp_hops
    && rp.rp_hops.(pos).hop_uid = ev.uid
    && hop_valid rp.rp_hops.(pos)
  then begin
    rp.rp_claim <- pos + 1;
    claim ev rp v pos
  end
  else begin
    if rp.rp_live then diverge d rp ev.ename;
    raise_core ev v No_flow
  end

(* A root hit: the whole chain runs synchronously, right now, in the
   caller's context (the device's receive-interrupt work item on the
   steady-state path) — zero scheduled work items of its own.  Nested
   raises claim their hops via [replay_step]; claimed hops run here in
   FIFO order after the hop that raised them finishes, matching graph
   dispatch's work-queue delivery order.  The chain's modelled cost
   accumulates in [rp_cost] and is charged in one [Cpu.charge] at the
   end, which reserves the CPU so queued and subsequent work (a reply
   the handlers sent, the next frame's interrupt) still waits out the
   chain's cost.  Relative to graph dispatch, handler side effects land
   earlier in wall-clock model time (at the raise instant rather than
   after each hop's work item) — per-flow delivery order, counters and
   total charged CPU time are unchanged, which is the equivalence the
   cache promises.  Entry validity needs no upfront re-check: nothing
   can intervene between the lookup and this synchronous run, and
   [replay_step] and [run_claim] re-check each hop as it is claimed and
   run (a handler itself may churn the graph mid-chain). *)
let replay_start ev v hops =
  let d = ev.disp in
  let rp = d.rp in
  incr d.pc_hits;
  incr ev.ev_cached;
  if Observe.Trace.active d.trace then begin
    let handlers =
      Array.fold_left (fun n hop -> n + List.length hop.hop_hids) 0 hops
    in
    emit_span d
      (Observe.Trace.Cache_hit
         { event = ev.ename; hops = Array.length hops; handlers })
  end;
  flight_note_raise d ev v;
  rp.rp_hops <- hops;
  rp.rp_claim <- 1;
  rp.rp_cost <- d.costs.index;
  rp.rp_live <- true;
  if rp.rp_entries != ev.entries then rp.rp_entries <- ev.entries;
  if rp.rp_key != ev.sig_key then rp.rp_key <- ev.sig_key;
  d.in_replay <- true;
  rp.rp_cost <- Sim.Stime.add rp.rp_cost (run_hop ev v hops.(0).hop_hids);
  while rp.rp_next < rp.rp_queued do
    let run = rp.rp_runs.(rp.rp_next) in
    rp.rp_next <- rp.rp_next + 1;
    rp.rp_cost <- Sim.Stime.add rp.rp_cost (run ())
  done;
  rp.rp_next <- 0;
  rp.rp_queued <- 0;
  d.in_replay <- false;
  Sim.Cpu.charge d.cpu ~cost:rp.rp_cost

let record_raise ev v sg =
  let r =
    {
      rec_ename = ev.ename;
      rec_commit = (fun hops -> Clock_cache.put ev.entries sg hops);
      rec_hops = [];
      rec_pending = 0;
      rec_ok = true;
    }
  in
  raise_core ev v (Recording r)

(* A root raise on a caching event.  The signature is probed in place
   in the event's scratch; only a miss copies it out, as the key of the
   entry it records.  No recording is ever empty, so [[||]] stands for
   "no entry". *)
let cached_raise ev v write =
  let d = ev.disp and key = ev.sig_key in
  if not (write v key) then raise_core ev v No_flow (* unsignable: bypass *)
  else begin
    let hops =
      Clock_cache.find_or ev.entries (Bytes.unsafe_to_string key) [||]
    in
    if Array.length hops > 0 && entry_valid hops then replay_start ev v hops
    else begin
      if Array.length hops > 0 then begin
        Clock_cache.remove ev.entries (Bytes.unsafe_to_string key);
        incr d.pc_invalidations;
        cache_invalidate_span d ev.ename "stale-generation"
      end;
      incr d.pc_misses;
      record_raise ev v (Bytes.to_string key)
    end
  end

(* One raise, flow-cache aware.  [prio] (or a sticky override left by
   an overridden handler body) demotes the raise and everything it
   delivers; demoted raises bypass the flow cache entirely — replay
   charges its cost synchronously in the raiser's context, which is
   exactly what the demoted path must avoid, and a demoted walk must not
   record either (its chain would replay at interrupt priority later). *)
let raise ?prio ev v =
  let d = ev.disp in
  incr d.raises;
  incr ev.ev_raises;
  let over = match prio with Some _ -> prio | None -> d.prio_override in
  if d.in_replay then replay_step ev v d.rp
  else
    match d.flow with
    | Recording _ as flow -> raise_core ?over ev v flow
    | No_flow -> (
        match ev.sigfn with
        | Some write when Option.is_none over && d.fcache && ev.mode = Interrupt
          ->
            cached_raise ev v write
        | _ -> raise_core ?over ev v No_flow)

(* --- introspection rendering ------------------------------------------ *)

let pp_event_info ppf ei =
  Fmt.pf ppf "%s [%s%s] %d handler(s) gen=%d cache=%d%s@." ei.ei_name
    (match ei.ei_mode with Interrupt -> "interrupt" | Thread -> "thread")
    (if ei.ei_indexed then ", indexed" else "")
    (List.length ei.ei_handlers)
    ei.ei_generation ei.ei_cache_entries
    (match ei.ei_tree with
    | Some ti ->
        Printf.sprintf " tree[nodes=%d depth=%d rebuilds=%d raises=%d resid=%d]"
          ti.ti_nodes ti.ti_depth ti.ti_rebuilds ti.ti_raises
          ti.ti_residual_evals
    | None -> "");
  List.iter
    (fun hi ->
      Fmt.pf ppf
        "    h%-3d %-24s %s%s hits=%d misses=%d runs=%d cpu=%dns allocs=%d%s%s%s%s@."
        hi.hi_id
        (if hi.hi_gen = 0 then hi.hi_label
         else Printf.sprintf "%s#%d" hi.hi_label hi.hi_gen)
        (match hi.hi_key with
        | Some k -> Printf.sprintf "key=0x%x " k
        | None -> "linear ")
        (if hi.hi_ephemeral then "ephemeral" else "plain")
        hi.hi_guard_hits hi.hi_guard_misses hi.hi_runs hi.hi_cpu_ns
        hi.hi_allocs
        (if hi.hi_terminations > 0 then
           Printf.sprintf " terms=%d" hi.hi_terminations
         else "")
        (if hi.hi_failures > 0 then
           Printf.sprintf " fails=%d" hi.hi_failures
         else "")
        (if hi.hi_quarantines > 0 then
           Printf.sprintf " quars=%d" hi.hi_quarantines
         else "")
        (match hi.hi_budget with
        | Some b -> Fmt.str " cert[%a]" Verifier.pp_budget b
        | None -> ""))
    ei.ei_handlers

let pp_dump ppf t = List.iter (fun ei -> Fmt.pf ppf "  %a" pp_event_info ei) (dump t)
