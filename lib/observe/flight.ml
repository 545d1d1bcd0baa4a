(* Packet flight recorder: sampled end-to-end latency timelines.

   A flight endpoint makes the ingress sampling decision (deterministic
   1-in-N, keyed off a seeded mix so the sampled set is a pure function
   of [seed], [rate] and arrival ordinals), hands out packet ids that
   ride on the mbuf ([Packet.Mbuf.mark]), and collects per-stage latency
   records — ingress, ingress→raise, per-handler run, admission queue
   wait, cross-domain hop, delivery/drop — into a bounded ring.

   One endpoint per kernel (and per domain in the parallel datapath);
   per-domain rings are folded together with {!merge_into} at snapshot
   time, each record keeping the domain that emitted it, so a packet
   forwarded across an SPSC ring shows up as one timeline whose stages
   carry their home domain.

   The disabled path must be free: every emitter guards on
   {!enabled} (one load + compare), and an unsampled packet costs one
   mix + modulo at ingress and a [mark = 0] compare per stage site. *)

type stage =
  | Ingress of { dev : string }
  | Raise of { event : string }
  | Handler of { event : string; label : string }
  | Queue_wait of { dev : string }
  | Hop of { from_domain : int; to_domain : int }
  | Deliver of { scope : string }
  | Drop of { scope : string; reason : string }

type record = {
  pkt : int;
  domain : int;
  at_ns : int;
  dur_ns : int;
  stage : stage;
}

type t = {
  seed : int;
  mutable rate : int; (* 0 = disabled, N = sample 1-in-N *)
  mutable domain : int;
  mutable seen : int; (* ingress arrivals observed (sampled or not) *)
  mutable sampled : int;
  buf : record option array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int; (* overwritten records *)
  origins : (int, int) Hashtbl.t; (* pkt id -> ingress timestamp (ns) *)
}

let create ?(capacity = 4096) ?(rate = 0) ~seed () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity";
  if rate < 0 then invalid_arg "Flight.create: rate";
  {
    seed;
    rate;
    domain = 0;
    seen = 0;
    sampled = 0;
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    dropped = 0;
    origins = Hashtbl.create 64;
  }

let[@inline] enabled t = t.rate > 0
let set_rate t r = if r < 0 then invalid_arg "Flight.set_rate" else t.rate <- r
let seed t = t.seed
let domain t = t.domain
let set_domain t d = t.domain <- d
let seen t = t.seen
let sampled t = t.sampled
let length t = t.len
let dropped t = t.dropped

(* splitmix64-style finalizer over OCaml's native ints (overflow wraps,
   which is exactly what a mixer wants).  Kept local so [observe] stays
   free of a [sim] dependency; this is NOT [Sim.Rng], but it obeys the
   same contract: a pure function of (seed, n). *)
let mix seed n =
  let z = seed lxor (n * 0x9E3779B97F4A7C) in
  let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5 in
  let z = (z lxor (z lsr 27)) * 0x94D049BB133111 in
  (z lxor (z lsr 31)) land max_int

(* The sampling decision for arrival ordinal [n] (1-based): the packet
   id [n] when sampled, 0 otherwise.  Pure, so the parallel datapath can
   pre-compute marks from a frame plan and every domain agrees. *)
let mark_for ~seed ~rate n =
  if rate <= 0 || n <= 0 then 0
  else if rate = 1 then n
  else if mix seed n mod rate = 0 then n
  else 0

(* Ingress admission: count the arrival and decide.  Returns the mark to
   stamp on the mbuf (0 = not sampled). *)
let admit t =
  if t.rate = 0 then 0
  else begin
    t.seen <- t.seen + 1;
    let m = mark_for ~seed:t.seed ~rate:t.rate t.seen in
    if m > 0 then t.sampled <- t.sampled + 1;
    m
  end

(* Out-of-band admission: the parallel datapath decides sampling from
   the shared frame plan ([mark_for] on the plan seed) rather than this
   recorder's own arrival counter, then tallies the outcome here so
   seen/sampled stay meaningful per domain (and sum under merge). *)
let tally t ~sampled =
  t.seen <- t.seen + 1;
  if sampled then t.sampled <- t.sampled + 1

let push t r =
  let cap = Array.length t.buf in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.head) <- Some r;
  t.head <- (t.head + 1) mod cap

let note t ~pkt ~at_ns ~dur_ns stage =
  push t { pkt; domain = t.domain; at_ns; dur_ns; stage }

(* Ingress: remember the arrival timestamp (for ingress→raise and
   end-to-end latencies) and record the stage.  The origin table is
   bounded: delivery/drop sites call [finish], and a safety valve wipes
   it if silently-dying packets ever accumulate. *)
let ingress t ~pkt ~at_ns ~dev =
  if Hashtbl.length t.origins > 4 * Array.length t.buf then
    Hashtbl.reset t.origins;
  Hashtbl.replace t.origins pkt at_ns;
  note t ~pkt ~at_ns ~dur_ns:0 (Ingress { dev })

let origin t ~pkt = Hashtbl.find_opt t.origins pkt

let since_ingress t ~pkt ~at_ns =
  match Hashtbl.find_opt t.origins pkt with
  | Some o when at_ns >= o -> at_ns - o
  | _ -> 0

let finish t ~pkt = Hashtbl.remove t.origins pkt

(* Oldest retained record first. *)
let records t =
  let cap = Array.length t.buf in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i ->
      match t.buf.((start + i) mod cap) with
      | Some r -> r
      | None -> assert false)

(* Fold [src]'s records into [into], preserving each record's home
   domain (stamped at [note] time).  Counters accumulate so a merged
   endpoint reports fleet-wide sampling totals. *)
let merge_into ~into src =
  List.iter (fun r -> push into r) (records src);
  into.seen <- into.seen + src.seen;
  into.sampled <- into.sampled + src.sampled;
  into.dropped <- into.dropped + src.dropped

(* Group records into per-packet timelines: packet ids ascending, each
   packet's records in emission order.  Records from different domains
   carry incomparable clocks, so ordering within a packet is the merge
   order (per-domain emission order), not a timestamp sort. *)
let timelines recs =
  let tbl = Hashtbl.create 64 in
  let ids = ref [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.pkt with
      | Some rs -> rs := r :: !rs
      | None ->
          ids := r.pkt :: !ids;
          Hashtbl.replace tbl r.pkt (ref [ r ]))
    recs;
  List.sort compare !ids
  |> List.map (fun pkt -> (pkt, List.rev !(Hashtbl.find tbl pkt)))

let stage_name = function
  | Ingress _ -> "ingress"
  | Raise _ -> "raise"
  | Handler _ -> "handler"
  | Queue_wait _ -> "queue_wait"
  | Hop _ -> "hop"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"

let stage_detail = function
  | Ingress { dev } | Queue_wait { dev } -> dev
  | Raise { event } -> event
  | Handler { event; label } -> event ^ "." ^ label
  | Hop { from_domain; to_domain } ->
      Printf.sprintf "d%d->d%d" from_domain to_domain
  | Deliver { scope } -> scope
  | Drop { scope; reason } -> scope ^ ":" ^ reason

let pp_stage ppf s =
  match s with
  | Ingress { dev } -> Fmt.pf ppf "ingress %s" dev
  | Raise { event } -> Fmt.pf ppf "raise %s" event
  | Handler { event; label } -> Fmt.pf ppf "handler %s.%s" event label
  | Queue_wait { dev } -> Fmt.pf ppf "queue_wait %s" dev
  | Hop { from_domain; to_domain } ->
      Fmt.pf ppf "hop domain%d -> domain%d" from_domain to_domain
  | Deliver { scope } -> Fmt.pf ppf "deliver %s" scope
  | Drop { scope; reason } -> Fmt.pf ppf "drop %s (%s)" scope reason

let pp_record ppf r =
  Fmt.pf ppf "pkt=%d d%d @%dns +%dns %a" r.pkt r.domain r.at_ns r.dur_ns
    pp_stage r.stage

let pp_timeline ppf (pkt, recs) =
  Fmt.pf ppf "pkt %d:@." pkt;
  List.iter
    (fun (r : record) ->
      Fmt.pf ppf "  [domain%d t=%-10d +%-8d] %a@." r.domain r.at_ns r.dur_ns
        pp_stage r.stage)
    recs

let record_to_json r =
  Printf.sprintf
    "{\"pkt\": %d, \"domain\": %d, \"at_ns\": %d, \"dur_ns\": %d, \"stage\": \
     \"%s\", \"detail\": \"%s\"}"
    r.pkt r.domain r.at_ns r.dur_ns (stage_name r.stage)
    (stage_detail r.stage)

let records_to_json recs =
  "[" ^ String.concat ", " (List.map record_to_json recs) ^ "]"

let to_json t =
  Printf.sprintf
    "{\n\
    \  \"seed\": %d,\n\
    \  \"rate\": %d,\n\
    \  \"seen\": %d,\n\
    \  \"sampled\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"records\": %s\n\
     }\n"
    t.seed t.rate t.seen t.sampled t.dropped
    (records_to_json (records t))
