(* Unit tests of the benchmark's statistics: the percentile rule and
   per-frame normalisation. *)

open Pbench

let check name cond = if not cond then failwith ("test_pbench: " ^ name)
let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* A percentile needs at least ten samples beyond it. *)
  check "p99 needs 1000 samples" (Pstat.supports ~n:1000 99. && not (Pstat.supports ~n:999 99.));
  check "p50 needs 20 samples" (Pstat.supports ~n:20 50. && not (Pstat.supports ~n:19 50.));
  check "tail of 1000" (Pstat.tail_percentile 1000 = Some 99.);
  check "tail of 999" (Pstat.tail_percentile 999 = Some 95.);
  check "tail of 10000" (Pstat.tail_percentile 10_000 = Some 99.9);
  check "tail of 19" (Pstat.tail_percentile 19 = None);
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  check "nearest-rank p99" (Pstat.percentile a 99. = Some 990.);
  check "nearest-rank p50" (Pstat.percentile a 50. = Some 500.);
  check "unsupported p99" (Pstat.percentile (Array.sub a 0 999) 99. = None);
  check "empty" (Pstat.percentile [||] 50. = None);
  check "median odd" (Pstat.median [| 3.; 1.; 2. |] = 2.);
  check "median even" (Pstat.median [| 4.; 1.; 3.; 2. |] = 2.5);
  let r = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "host rate is the median" (Pstat.host_rate r = 50.5);
  (* Normalisation divides by the frames carried. *)
  check "per frame" (close (Pstat.per_frame ~frames:4 10.) 2.5);
  check "per kframe" (close (Pstat.per_kframe ~frames:2000 3.) 1.5);
  check "ratio" (close (Pstat.ratio 1 4) 0.25 && Pstat.ratio 0 0 = 0.);
  check "per frame of nothing"
    (match Pstat.per_frame ~frames:0 1. with _ -> false | exception Invalid_argument _ -> true);
  (* Every failure counts, and the result line carries the tally. *)
  let t = Pstat.tally () in
  t.attempted <- 10;
  Pstat.fail t "one";
  Pstat.fail t ~count:2 "two";
  check "tally" (t.failed = 3 && List.length t.reasons = 2);
  check "result line"
    (Pstat.result_line ~correct:false t [ Pstat.m "x_s" "s" 0.5 ]
    = {|{"correct": false, "attempted": 10, "failed": 3, "metrics": {"x_s": {"value": 0.5, "unit": "s"}}}|});
  print_endline "test_pbench: ok"
