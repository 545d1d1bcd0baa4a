(* Substring search (naive; inputs are small protocol messages).  The
   bytes are compared in place, so a search allocates nothing. *)

let rec matches_at s sub i j =
  j = String.length sub
  || String.unsafe_get s (i + j) = String.unsafe_get sub j
     && matches_at s sub i (j + 1)

let rec search s sub i =
  if i + String.length sub > String.length s then -1
  else if matches_at s sub i 0 then i
  else search s sub (i + 1)

let find_sub s sub = search s sub 0
