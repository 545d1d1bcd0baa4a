(* Log-bucketed latency histogram (HDR-style).

   Values are non-negative integers (nanoseconds on the hot paths that
   use this).  Each power-of-two octave is split into [sub = 2^sub_bits]
   linear sub-buckets, so recording is O(1), memory is a fixed ~1K-slot
   array regardless of sample count, and any reported quantile is within
   a relative error of 2^-(sub_bits+1) (~3% at sub_bits = 4) of the
   exact value.  Hot paths use this instead of keeping samples for an
   exact percentile. *)

let sub_bits = 4
let sub = 1 lsl sub_bits (* 16 sub-buckets per octave *)

(* Values 0..sub-1 map to themselves (exact); values with most
   significant bit k >= sub_bits land in octave k - sub_bits, offset by
   the next [sub_bits] bits.  Max msb on 63-bit ints is 62. *)
let noctaves = 62 - sub_bits + 1
let nbuckets = sub + (noctaves * sub)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { counts = Array.make nbuckets 0; n = 0; sum = 0; vmin = max_int; vmax = 0 }

let reset t =
  Array.fill t.counts 0 nbuckets 0;
  t.n <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

let msb v =
  (* index of the highest set bit; [v > 0] *)
  let k = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin k := !k + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin k := !k + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin k := !k + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin k := !k + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin k := !k + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then k := !k + 1;
  !k

let bucket_of v =
  if v < sub then v
  else
    let k = msb v in
    let o = k - sub_bits in
    sub + (o * sub) + ((v lsr o) - sub)

(* Midpoint of the bucket's value range — the representative returned by
   quantile queries. *)
let value_of idx =
  if idx < sub then idx
  else
    let o = (idx - sub) / sub in
    let off = (idx - sub) mod sub in
    let low = (sub + off) lsl o in
    let width = 1 lsl o in
    low + ((width - 1) / 2)

let record t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.n
let sum t = t.sum
let is_empty t = t.n = 0
let min_value t = if t.n = 0 then 0 else t.vmin
let max_value t = t.vmax
let mean t = if t.n = 0 then nan else float_of_int t.sum /. float_of_int t.n

let percentile t p =
  if t.n = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let idx = ref 0 and seen = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    (* exact extremes beat the bucket midpoint at the edges *)
    let v = value_of !idx in
    if v < t.vmin then t.vmin else if v > t.vmax then t.vmax else v
  end

let p50 t = percentile t 50.
let p99 t = percentile t 99.
let p999 t = percentile t 99.9

type snapshot = {
  n : int;
  sum : int;
  vmin : int;
  vmax : int;
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
}

let snapshot (t : t) =
  {
    n = t.n;
    sum = t.sum;
    vmin = min_value t;
    vmax = t.vmax;
    mean = mean t;
    p50 = p50 t;
    p99 = p99 t;
    p999 = p999 t;
  }

let merge ~into src =
  for i = 0 to nbuckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end

let pp ppf (t : t) =
  if t.n = 0 then Fmt.pf ppf "n=0"
  else
    Fmt.pf ppf "n=%d mean=%.1f p50=%d p99=%d p999=%d min=%d max=%d" t.n
      (mean t) (p50 t) (p99 t) (p999 t) (min_value t) (max_value t)
