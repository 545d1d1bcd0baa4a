(* Per-link fault plans.

   The plan is a pure decision procedure over an explicit RNG stream:
   given "a frame of [len] bytes finishes its wire time at [now]", it
   answers drop / deliver-with-modifications.  Determinism matters more
   than realism here — the chaos harness replays seeds and reconciles
   injection counters against stack-observed drops, so every random
   draw comes from the plan's own [Sim.Rng] and nothing depends on
   wall-clock or iteration order.

   Draw discipline: the draws a frame consumes depend only on the plan's
   parameters, the frame length and the stream itself — never on
   observers — so enabling tracing or gauges can never shift the
   stream. *)

type loss =
  | No_loss
  | Bernoulli of float
  | Gilbert_elliott of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
    }

type t = {
  name : string;
  rng : Sim.Rng.t;
  mutable loss : loss;
  mutable ge_bad : bool; (* Gilbert–Elliott state: currently bursting? *)
  mutable corrupt_prob : float;
  mutable corrupt_min_off : int;
  mutable dup_prob : float;
  mutable jitter_prob : float;
  mutable jitter_max : Sim.Stime.t;
  mutable down : (Sim.Stime.t * Sim.Stime.t) list;
  (* injection counters *)
  mutable loss_drops : int;
  mutable down_drops : int;
  mutable corruptions : int;
  mutable duplicates : int;
  mutable delays : int;
}

let check_prob what p =
  if p < 0. || p > 1. then invalid_arg ("Faults." ^ what ^ ": probability")

let create ?(name = "faults") ~rng () =
  {
    name;
    rng;
    loss = No_loss;
    ge_bad = false;
    corrupt_prob = 0.;
    corrupt_min_off = 14;
    dup_prob = 0.;
    jitter_prob = 0.;
    jitter_max = Sim.Stime.us 500;
    down = [];
    loss_drops = 0;
    down_drops = 0;
    corruptions = 0;
    duplicates = 0;
    delays = 0;
  }

let name t = t.name

let set_loss t l =
  (match l with
  | No_loss -> ()
  | Bernoulli p -> check_prob "set_loss" p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      check_prob "set_loss" p_gb;
      check_prob "set_loss" p_bg;
      check_prob "set_loss" loss_good;
      check_prob "set_loss" loss_bad);
  t.ge_bad <- false;
  t.loss <- l

let set_corrupt t ?(min_off = 14) p =
  check_prob "set_corrupt" p;
  if min_off < 0 then invalid_arg "Faults.set_corrupt: min_off";
  t.corrupt_prob <- p;
  t.corrupt_min_off <- min_off

let set_duplicate t p =
  check_prob "set_duplicate" p;
  t.dup_prob <- p

let set_jitter t ?(max_delay = Sim.Stime.us 500) p =
  check_prob "set_jitter" p;
  t.jitter_prob <- p;
  t.jitter_max <- max_delay

let set_down t windows = t.down <- windows

type delivery = {
  corrupt_at : int option;
  xor_mask : int;
  extra_delay : Sim.Stime.t;
}

type verdict = Drop of string | Deliver of delivery list

(* A frame the plan leaves alone gets this one shared verdict, so the
   common case allocates nothing. *)
let intact = { corrupt_at = None; xor_mask = 1; extra_delay = Sim.Stime.zero }
let pass = Deliver [ intact ]

let is_down t now =
  t.down <> []
  && List.exists
       (fun (start, stop) ->
         Sim.Stime.compare start now <= 0 && Sim.Stime.compare now stop < 0)
       t.down

(* One loss decision per frame.  A draw happens whenever the process is
   enabled, even if the state makes loss impossible, to keep the stream
   stable under parameter tweaks; the exceptions are a Bernoulli process
   at 0 or 1, whose outcome no draw can change. *)
let lost t =
  match t.loss with
  | No_loss -> false
  | Bernoulli p -> p > 0. && (p >= 1. || Sim.Rng.float t.rng 1.0 < p)
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      let flip = Sim.Rng.float t.rng 1.0 in
      (if t.ge_bad then (if flip < p_bg then t.ge_bad <- false)
       else if flip < p_gb then t.ge_bad <- true);
      let p = if t.ge_bad then loss_bad else loss_good in
      p > 0. && Sim.Rng.float t.rng 1.0 < p

let loss_fault t =
  match t.loss with
  | Gilbert_elliott _ -> "burst_loss"
  | No_loss | Bernoulli _ -> "loss"

let one_delivery t ~len =
  let corrupt_at =
    if t.corrupt_prob > 0. then begin
      let hit = Sim.Rng.float t.rng 1.0 < t.corrupt_prob in
      if hit && len > t.corrupt_min_off then begin
        let off =
          t.corrupt_min_off + Sim.Rng.int t.rng (len - t.corrupt_min_off)
        in
        t.corruptions <- t.corruptions + 1;
        Some off
      end
      else None
    end
    else None
  in
  let xor_mask =
    if corrupt_at <> None then 1 + Sim.Rng.int t.rng 255 else 1
  in
  let extra_delay =
    if t.jitter_prob > 0. && Sim.Rng.float t.rng 1.0 < t.jitter_prob then begin
      let d = Sim.Stime.scale t.jitter_max (Sim.Rng.float t.rng 1.0) in
      if Sim.Stime.is_positive d then t.delays <- t.delays + 1;
      d
    end
    else Sim.Stime.zero
  in
  if corrupt_at = None && not (Sim.Stime.is_positive extra_delay) then intact
  else { corrupt_at; xor_mask; extra_delay }

let verdict t ~now ~len =
  if is_down t now then begin
    t.down_drops <- t.down_drops + 1;
    Drop "down"
  end
  else if lost t then begin
    t.loss_drops <- t.loss_drops + 1;
    Drop (loss_fault t)
  end
  else
    let first = one_delivery t ~len in
    if t.dup_prob > 0. && Sim.Rng.float t.rng 1.0 < t.dup_prob then begin
      t.duplicates <- t.duplicates + 1;
      Deliver [ first; one_delivery t ~len ]
    end
    else if first == intact then pass
    else Deliver [ first ]

let loss_drops t = t.loss_drops
let down_drops t = t.down_drops
let drops t = t.loss_drops + t.down_drops
let corruptions t = t.corruptions
let duplicates t = t.duplicates
let delays t = t.delays
let injected t = drops t + t.corruptions + t.duplicates + t.delays

let register t reg ~prefix =
  let g key f = Observe.Registry.gauge reg (prefix ^ "." ^ key) f in
  g "loss_drops" (fun () -> t.loss_drops);
  g "down_drops" (fun () -> t.down_drops);
  g "corruptions" (fun () -> t.corruptions);
  g "duplicates" (fun () -> t.duplicates);
  g "delays" (fun () -> t.delays)

let pp ppf t =
  Fmt.pf ppf
    "%s: %d lost, %d down, %d corrupted, %d duplicated, %d delayed" t.name
    t.loss_drops t.down_drops t.corruptions t.duplicates t.delays
