(* Order statistics, per-frame normalisation and the result line shared
   by every workload of the benchmark. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstat.median: no samples";
  let s = sorted a in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A percentile is reported only when at least ten samples lie beyond
   it, so a tail figure never rests on a handful of outliers. *)
let min_beyond = 10

let supports ~n p =
  float_of_int n *. (100. -. p) /. 100. >= float_of_int min_beyond -. 1e-6

(* The ladder a tail is reported from: the highest rung [n] samples
   support, or [None] when even the median is out of reach. *)
let tail_percentile n =
  List.find_opt (fun p -> supports ~n p) [ 99.99; 99.9; 99.; 95.; 90.; 50. ]

(* Nearest-rank percentile; [None] when [p] is not supported. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 || not (supports ~n p) then None
  else begin
    let s = sorted a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Some s.(Int.max 0 (Int.min (n - 1) (rank - 1)))
  end

(* Host speed from repetitions of the same work: their median.  On a
   shared host the rest of the machine both slows and speeds a
   repetition, so an extreme quantile follows whichever burst a run
   happened to catch. *)
let host_rate rates = median rates

let per_frame ~frames x =
  if frames <= 0 then invalid_arg "Pstat.per_frame: no frames";
  x /. float_of_int frames

let per_kframe ~frames x = 1000. *. per_frame ~frames x

(* [x] of [total], 0 when nothing was attempted. *)
let ratio x total = if total = 0 then 0. else float_of_int x /. float_of_int total

(* --- result accounting ------------------------------------------------ *)

(* Added to one expected value in each workload's checks; 1 only when
   the command is asked to show that a failing check fails the run. *)
let tamper = ref 0

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* Operations attempted and failed, with the first few failure reasons
   kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

(* Fold [src]'s operations into [into]. *)
let absorb ~into src =
  into.attempted <- into.attempted + src.attempted;
  into.failed <- into.failed + src.failed;
  into.reasons <- into.reasons @ src.reasons

let fail t ?(count = 1) reason =
  t.failed <- t.failed + count;
  if List.length t.reasons < 8 then t.reasons <- reason :: t.reasons

(* --- JSON ------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision: the value as measured, every digit kept. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Pstat.json_float: not finite"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct (t : tally) metrics =
  json_obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ( "metrics",
        json_obj
          (List.map
             (fun x ->
               ( x.name,
                 json_obj [ ("value", json_float x.value); ("unit", json_string x.unit) ] ))
             metrics) );
    ]
