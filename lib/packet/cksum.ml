(* The Internet checksum (RFC 1071): one's-complement sum of 16-bit
   big-endian words.  Used by IP, ICMP, UDP and TCP.

   The fast path folds eight bytes per load (the runtime's native
   big-endian 64-bit read, summed as two 32-bit halves), finishes with
   16-bit loads, and carries a parity bit across windows so a
   scatter-gather chain checksums correctly even when interior segments
   have odd length — no pullup, no flattening.  A byte-at-a-time
   implementation is kept as executable reference semantics. *)

(* Add [len] bytes of [data] from [off] to the running (unfolded) sum.
   [odd] says the byte count before this window is odd, i.e. the last
   byte consumed was the high half of an open word.  The caller carries
   that parity across windows: it flips exactly when [len] is odd. *)
let add_bytes sum ~odd data off len =
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
  !sum

let fold_words acc v =
  add_bytes acc ~odd:false (View.unsafe_data v) (View.unsafe_off v)
    (View.length v)

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let of_view v = finish (fold_words 0 v)

let of_sub v ~off ~len =
  if off < 0 || len < 0 || off + len > View.length v then
    raise
      (View.Out_of_bounds { index = off; width = len; length = View.length v });
  finish
    (add_bytes 0 ~odd:false (View.unsafe_data v) (View.unsafe_off v + off) len)

let of_views vs =
  let rec go sum odd = function
    | [] -> finish sum
    | v :: rest ->
        let len = View.length v in
        go
          (add_bytes sum ~odd (View.unsafe_data v) (View.unsafe_off v) len)
          (odd <> (len land 1 = 1))
          rest
  in
  go 0 false vs

(* Chain fold with no list and no tuple: the parity rides in the low bit
   of the state, the running sum above it. *)
let seg_step st data off len =
  let odd = st land 1 = 1 in
  let sum = add_bytes (st asr 1) ~odd data off len in
  (sum lsl 1) lor (if odd <> (len land 1 = 1) then 1 else 0)

let fold_mbuf acc m = Mbuf.unsafe_fold_segs seg_step (acc lsl 1) m asr 1

let of_mbuf m = finish (fold_mbuf 0 m)

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
