(* TCP segment wire format (20-byte header, no options) and 32-bit
   sequence-number arithmetic. *)

let header_len = 20

module Flags = struct
  type t = int

  let fin = 0x01
  let syn = 0x02
  let rst = 0x04
  let psh = 0x08
  let ack = 0x10

  let test t f = t land f <> 0
  let ( + ) = ( lor )

  let pp ppf t =
    let names =
      List.filter_map
        (fun (f, n) -> if test t f then Some n else None)
        [ (syn, "SYN"); (fin, "FIN"); (rst, "RST"); (psh, "PSH"); (ack, "ACK") ]
    in
    Fmt.pf ppf "%s" (String.concat "|" (if names = [] then [ "-" ] else names))
end

module Seq = struct
  (* Sequence numbers are 32-bit and compared modulo 2^32. *)
  type t = int

  let mask = 0xffffffff
  let of_int i = i land mask
  let to_int t = t
  let add t n = (t + n) land mask
  let diff a b = (a - b) land mask
  (* Signed distance interpretations: [lt a b] when a precedes b. *)
  let lt a b = diff a b > 0x7fffffff && a <> b
  let le a b = a = b || lt a b
  let gt a b = lt b a
  let ge a b = le b a
  let max a b = if ge a b then a else b
end

type header = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : Flags.t;
  window : int;
}

(* The header layout, declared once: each field's byte offset.  [parse],
   [write] and the in-place accessors below all read these. *)
module Off = struct
  let src_port = 0
  let dst_port = 2
  let seq = 4
  let ack = 8
  let data_off = 12
  let flags = 13
  let window = 14
  let cksum = 16
  let urgent = 18
end

(* In-place field access: one bounds-checked load per field, no record.
   [has_header] is exactly [parse]'s acceptance test: a header that
   fits, with a data offset between 20 bytes and the segment's end. *)
let get_data_off v = (View.get_u8 v Off.data_off lsr 4) * 4

let has_header v =
  View.length v >= header_len
  &&
  let d = get_data_off v in
  d >= header_len && d <= View.length v

let get_src_port v = View.get_u16 v Off.src_port
let get_dst_port v = View.get_u16 v Off.dst_port
let get_seq v = Seq.of_int (View.get_u32 v Off.seq)
let get_ack v = Seq.of_int (View.get_u32 v Off.ack)
let get_flags v = View.get_u8 v Off.flags land 0x3f
let get_window v = View.get_u16 v Off.window

(* The whole header as a record, from a view that [has_header]. *)
let read v =
  {
    src_port = get_src_port v;
    dst_port = get_dst_port v;
    seq = get_seq v;
    ack = get_ack v;
    flags = get_flags v;
    window = get_window v;
  }

let parse v = if has_header v then Some (read v, get_data_off v) else None

(* The only segment that may open a passive connection. *)
let opening_syn v =
  let f = get_flags v in
  Flags.test f Flags.syn && not (Flags.test f Flags.(ack + rst))

let write v h =
  View.set_u16 v Off.src_port h.src_port;
  View.set_u16 v Off.dst_port h.dst_port;
  View.set_u32 v Off.seq (Seq.to_int h.seq);
  View.set_u32 v Off.ack (Seq.to_int h.ack);
  View.set_u8 v Off.data_off ((header_len / 4) lsl 4);
  View.set_u8 v Off.flags h.flags;
  View.set_u16 v Off.window h.window;
  View.set_u16 v Off.cksum 0;
  View.set_u16 v Off.urgent 0

(* The pseudo-header sum seeds the fold over the segment in place. *)
let segment_sum ~src ~dst v =
  Cksum.fold_words
    (Ipv4.pseudo_sum ~src ~dst ~proto:Ipv4.proto_tcp ~len:(View.length v))
    v

let compute_cksum ~src ~dst v = Cksum.finish (segment_sum ~src ~dst v)

(* Build a full segment packet: header + payload, checksummed.  The
   payload is written once, from the send queue into the segment. *)
let to_packet ~src ~dst h q ~off ~len =
  let pkt = Mbuf.alloc (header_len + len) in
  let v = Mbuf.view pkt in
  write v h;
  Byteq.blit q ~off ~len v ~dst_off:header_len;
  View.set_u16 v Off.cksum (compute_cksum ~src ~dst v);
  pkt

type drop = Runt | Bad_offset | Bad_checksum

let drop_name = function
  | Runt -> "runt"
  | Bad_offset -> "bad_offset"
  | Bad_checksum -> "bad_checksum"

(* Every check a receiver needs before it may read the segment, in
   place.  The results are constant blocks, so a verdict allocates
   nothing. *)
let check ~src ~dst v =
  if View.length v < header_len then Some Runt
  else if not (has_header v) then Some Bad_offset
  else if Cksum.finish (segment_sum ~src ~dst v) <> 0 then Some Bad_checksum
  else None

let pp_header ppf h =
  Fmt.pf ppf "tcp{%d -> %d seq=%d ack=%d %a win=%d}" h.src_port h.dst_port
    (Seq.to_int h.seq) (Seq.to_int h.ack) Flags.pp h.flags h.window
