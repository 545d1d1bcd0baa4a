(* A LIFO of recycled records (see stash.mli for the pattern).  A
   stashed record keeps pointing at the last payload it carried until it
   is reused.  A record put back where it was taken from is already in
   its slot, so [put] stores it only when the slot holds another one:
   the store into the long-lived array is a write barrier. *)

type 'r t = { mutable items : 'r array; mutable n : int }

let create () = { items = [||]; n = 0 }
let is_empty s = s.n = 0

let take s =
  if s.n = 0 then invalid_arg "Stash.take: empty";
  s.n <- s.n - 1;
  s.items.(s.n)

let put s r =
  if s.n = Array.length s.items then begin
    let bigger = Array.make (Int.max 8 (2 * s.n)) r in
    Array.blit s.items 0 bigger 0 s.n;
    s.items <- bigger
  end;
  if s.items.(s.n) != r then s.items.(s.n) <- r;
  s.n <- s.n + 1
