(* Structured trace spans with pluggable sinks.

   The dispatcher (and devices, managers, ...) emit typed spans — raise,
   guard evaluation, handler run, ephemeral commit, drop — each stamped
   with the simulated time, the event name and the handler involved, so
   a packet's path through the protocol graph can be reconstructed and
   asserted on.

   A trace endpoint owns one sink.  [Null] is the default and MUST be
   free on the hot path: emitters are expected to guard span
   construction with [if Trace.active tr then ...], so a disabled trace
   costs one mutable-field load and a branch per site. *)

type event =
  | Raise of { event : string; candidates : int; switches : int }
  | Guard_eval of { event : string; hid : int; label : string; hit : bool }
  | Handler_run of {
      event : string;
      hid : int;
      label : string;
      duration_ns : int;
    }
  | Ephemeral_commit of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Terminated of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Cache_hit of { event : string; hops : int; handlers : int }
  | Cache_invalidate of { event : string; reason : string }
  | Drop of { scope : string; reason : string }
  | Wire_fault of { link : string; fault : string; detail : string }
  | Handoff of {
      op : string; (* "enqueue" | "self_drain" | "phase_b_drain" *)
      from_domain : int;
      to_domain : int;
      frames : int;
    }

type span = { at_ns : int; event : event }

let kind = function
  | Raise _ -> "raise"
  | Guard_eval _ -> "guard_eval"
  | Handler_run _ -> "handler_run"
  | Ephemeral_commit _ -> "ephemeral_commit"
  | Terminated _ -> "terminated"
  | Cache_hit _ -> "cache_hit"
  | Cache_invalidate _ -> "cache_invalidate"
  | Drop _ -> "drop"
  | Wire_fault _ -> "wire_fault"
  | Handoff _ -> "handoff"

(* The event (or scope) a span belongs to — protocol-graph spans carry
   their node's event name, e.g. "udp.PacketRecv". *)
let scope = function
  | Raise { event; _ }
  | Guard_eval { event; _ }
  | Handler_run { event; _ }
  | Ephemeral_commit { event; _ }
  | Terminated { event; _ }
  | Cache_hit { event; _ }
  | Cache_invalidate { event; _ } ->
      event
  | Drop { scope; _ } -> scope
  | Wire_fault { link; _ } -> link
  | Handoff { from_domain; _ } -> Printf.sprintf "domain%d" from_domain

let pp_ns ppf t =
  if t < 1_000 then Fmt.pf ppf "%dns" t
  else if t < 1_000_000 then Fmt.pf ppf "%.2fus" (float_of_int t /. 1e3)
  else if t < 1_000_000_000 then Fmt.pf ppf "%.3fms" (float_of_int t /. 1e6)
  else Fmt.pf ppf "%.3fs" (float_of_int t /. 1e9)

let pp_event ppf = function
  | Raise { event; candidates; switches } ->
      Fmt.pf ppf "raise %s candidates=%d switches=%d" event candidates switches
  | Guard_eval { event; hid; label; hit } ->
      Fmt.pf ppf "guard_eval %s %s(h%d) %s" event label hid
        (if hit then "hit" else "miss")
  | Handler_run { event; hid; label; duration_ns } ->
      Fmt.pf ppf "handler_run %s %s(h%d) took %a" event label hid pp_ns
        duration_ns
  | Ephemeral_commit { event; hid; label; committed; total; duration_ns } ->
      Fmt.pf ppf "ephemeral_commit %s %s(h%d) %d/%d actions in %a" event label
        hid committed total pp_ns duration_ns
  | Terminated { event; hid; label; committed; total; duration_ns } ->
      Fmt.pf ppf "terminated %s %s(h%d) after %d/%d actions at budget %a"
        event label hid committed total pp_ns duration_ns
  | Cache_hit { event; hops; handlers } ->
      Fmt.pf ppf "cache_hit %s hops=%d handlers=%d" event hops handlers
  | Cache_invalidate { event; reason } ->
      Fmt.pf ppf "cache_invalidate %s reason=%s" event reason
  | Drop { scope; reason } -> Fmt.pf ppf "drop %s reason=%s" scope reason
  | Wire_fault { link; fault; detail } ->
      Fmt.pf ppf "wire_fault %s %s%s" link fault
        (if detail = "" then "" else " " ^ detail)
  | Handoff { op; from_domain; to_domain; frames } ->
      Fmt.pf ppf "handoff %s domain%d -> domain%d frames=%d" op from_domain
        to_domain frames

let pp_span ppf s = Fmt.pf ppf "[%a] %a" pp_ns s.at_ns pp_event s.event

(* --- in-memory ring-buffer sink --------------------------------------- *)

module Ring = struct
  type t = {
    buf : span option array;
    mutable head : int; (* next write slot *)
    mutable len : int;
    mutable dropped : int; (* overwritten spans *)
  }

  let create ?(capacity = 1024) () =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity";
    { buf = Array.make capacity None; head = 0; len = 0; dropped = 0 }

  let capacity t = Array.length t.buf
  let length t = t.len
  let dropped t = t.dropped

  let clear t =
    Array.fill t.buf 0 (Array.length t.buf) None;
    t.head <- 0;
    t.len <- 0;
    t.dropped <- 0

  let push t s =
    let cap = Array.length t.buf in
    if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
    t.buf.(t.head) <- Some s;
    t.head <- (t.head + 1) mod cap

  (* Oldest retained span first. *)
  let to_list t =
    let cap = Array.length t.buf in
    let start = (t.head - t.len + cap) mod cap in
    List.init t.len (fun i ->
        match t.buf.((start + i) mod cap) with
        | Some s -> s
        | None -> assert false)
end

(* --- sinks and endpoints ---------------------------------------------- *)

type sink = Null | Stderr | Ring of Ring.t | Fn of (span -> unit)

type t = { mutable sink : sink }

let create ?(sink = Null) () = { sink }
let set_sink t s = t.sink <- s
let sink t = t.sink
let[@inline] active t = match t.sink with Null -> false | _ -> true

let emit t span =
  match t.sink with
  | Null -> ()
  | Stderr -> Fmt.epr "%a@." pp_span span
  | Ring r -> Ring.push r span
  | Fn f -> f span
