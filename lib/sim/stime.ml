(* Simulated time, stored as integer nanoseconds.  OCaml's native int is
   63-bit on 64-bit platforms, giving ~292 years of range. *)

type t = int

let zero = 0
let ns n = n
let us u = u * 1_000
let ms m = m * 1_000_000
let s x = x * 1_000_000_000

let of_us_f u = int_of_float (u *. 1_000. +. 0.5)
let of_s_f x = int_of_float (x *. 1e9 +. 0.5)
let scaled n ~mul ~div = of_us_f (float_of_int n *. mul /. float_of_int div /. 1000.)

let to_ns t = t
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_s t = float_of_int t /. 1e9

let add = ( + )
let sub = ( - )
let mul t k = t * k
let scale t f = int_of_float (float_of_int t *. f +. 0.5)
(* Written out on ints: the Stdlib versions are polymorphic and, without
   flambda, every call would go through the generic structural compare. *)
let max (a : t) (b : t) = if a >= b then a else b
let min (a : t) (b : t) = if a <= b then a else b
let compare (a : t) (b : t) = Int.compare a b
let equal (a : t) (b : t) = a = b
let ( + ) = add
let ( - ) = sub
let is_positive t = t > 0

let pp ppf t =
  if t < 1_000 then Fmt.pf ppf "%dns" t
  else if t < 1_000_000 then Fmt.pf ppf "%.2fus" (to_us t)
  else if t < 1_000_000_000 then Fmt.pf ppf "%.3fms" (to_ms t)
  else Fmt.pf ppf "%.3fs" (to_s t)

let to_string t = Fmt.str "%a" pp t
