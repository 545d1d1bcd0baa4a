(* SplitMix64: a small, fast, deterministic PRNG.  We avoid Stdlib.Random
   so that simulation runs are reproducible independent of global state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* The SplitMix64 output finalizer: a bijective avalanche mix, applied
   to every advanced state and, by [stream], to raw (seed, index)
   combinations to decorrelate nearby pairs. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  let z = Int64.add t.state 0x9E3779B97F4A7C15L in
  t.state <- z;
  mix64 z

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits -> [0, 1) *)
  x /. 9007199254740992. *. bound

let split t = { state = next_int64 t }

(* Unlike [split], which derives a child from the parent's *current*
   position (so the result depends on how many draws preceded it), a
   stream is a pure function of (seed, index): worker domain [i] of a
   run seeded [s] always gets the same generator, no matter what the
   coordinating domain drew before spawning it.  Index [i]'s initial
   state is the SplitMix64 finalizer applied to [seed + (i+1)*gamma];
   the finalizer is bijective, so distinct indices give distinct states,
   and the avalanche keeps consecutive indices' output windows disjoint
   in practice (asserted by the qcheck non-overlap property). *)
let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: negative index";
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1)))
  in
  { state = mix64 z }

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Rng.pareto: shape and scale must be positive";
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  (* inverse-CDF: X = scale / U^(1/shape), support [scale, +inf) *)
  scale /. (u ** (1. /. shape))
