(* The Internet checksum (RFC 1071): one's-complement sum of 16-bit
   big-endian words.  Used by IP, ICMP, UDP and TCP.

   The fast path folds eight bytes per load (the runtime's native
   big-endian 64-bit read, summed as two 32-bit halves), finishes with
   16-bit loads, and carries a parity bit across windows so a
   scatter-gather chain checksums correctly even when interior segments
   have odd length — no pullup, no flattening.  A byte-at-a-time
   implementation is kept as executable reference semantics. *)

(* Running state: the unfolded sum plus whether the byte count so far is
   odd (i.e. the last byte consumed was the high half of an open word). *)
let fold16 (sum, odd) (v : _ View.t) =
  let data = View.unsafe_data v and off = View.unsafe_off v in
  let len = View.length v in
  let sum = ref sum and i = ref 0 in
  if odd && len > 0 then begin
    (* complete the word opened by the previous window: its high byte is
       already in the sum, this byte is the low half *)
    sum := !sum + Char.code (Bytes.get data off);
    incr i
  end;
  (* eight bytes per load, added as two big-endian 32-bit halves:
     2^16 = 1 modulo 0xffff, so a sum of 32-bit words folds to the same
     checksum as the sum of their 16-bit halves *)
  let stop8 = len - 7 in
  while !i < stop8 do
    let w = Bytes.get_int64_be data (off + !i) in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFF_FFFF);
    i := !i + 8
  done;
  let stop = len - 1 in
  while !i < stop do
    sum := !sum + Bytes.get_uint16_be data (off + !i);
    i := !i + 2
  done;
  if !i < len then
    sum := !sum + (Char.code (Bytes.get data (off + !i)) lsl 8);
  (!sum, if len = 0 then odd else odd <> (len land 1 = 1))

let fold_words acc v = fst (fold16 (acc, false) v)

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let of_view v = finish (fold_words 0 v)

let of_views vs = finish (fst (List.fold_left fold16 (0, false) vs))

let of_mbuf m = of_views (Mbuf.views m)

(* ---- reference semantics: one byte at a time ------------------------- *)

let fold_bytes state v =
  View.fold_u8
    (fun (sum, odd) b ->
      if odd then (sum + b, false) else (sum + (b lsl 8), true))
    state v

let of_views_bytewise vs = finish (fst (List.fold_left fold_bytes (0, false) vs))

let of_view_bytewise v = of_views_bytewise [ v ]

(* One's-complement addition of two 16-bit partial sums, used for the
   pseudo-header checksums of UDP and TCP. *)
let add16 a b =
  let s = a + b in
  (s land 0xffff) + (s lsr 16)

let valid v = of_view v = 0

(* RFC 1624 incremental update: recompute a checksum after a 16-bit field
   changed from [old_w] to [new_w].  Used by the in-kernel forwarder when it
   rewrites addresses/ports without touching the rest of the packet. *)
let update ~cksum ~old_w ~new_w =
  let hc' = add16 (add16 (lnot cksum land 0xffff) (lnot old_w land 0xffff)) new_w in
  lnot ((hc' land 0xffff) + (hc' lsr 16)) land 0xffff
