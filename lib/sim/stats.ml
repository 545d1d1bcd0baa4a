(* Measurement helpers: running means of durations, an exact
   percentile over a sample array, and log-bucketed histograms.  Only
   [percentile] looks at every sample, and its caller owns the array;
   everything else is O(1) memory. *)

module Histogram = Observe.Histogram

module Mean = struct
  (* The sum is kept in integer nanoseconds: exact, whatever the order
     the durations arrive in. *)
  type t = { mutable n : int; mutable sum : Stime.t }

  let create () = { n = 0; sum = Stime.zero }

  let add t d =
    t.n <- t.n + 1;
    t.sum <- Stime.add t.sum d

  let us t = if t.n = 0 then nan else Stime.to_us t.sum /. float_of_int t.n
end

let percentile samples p =
  match Array.length samples with
  | 0 -> nan
  | n ->
      let a = Array.copy samples in
      Array.sort compare a;
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
