(* UDP: header codec and datagram construction with the pseudo-header
   checksum.  The checksum can be disabled per datagram — the paper's
   motivating example of an application-specific protocol change
   (section 1.1): media applications that tolerate bit errors skip it. *)

let header_len = 8

type header = { src_port : int; dst_port : int; len : int; cksum : int }

(* The header layout, declared once: each field's byte offset.  [parse],
   [push] and the in-place accessors below all read these. *)
module Off = struct
  let src_port = 0
  let dst_port = 2
  let len = 4
  let cksum = 6
end

(* In-place field access: one bounds-checked load per field, no record.
   [has_header] is exactly [parse]'s acceptance test. *)
let has_header v = View.length v >= header_len
let get_src_port v = View.get_u16 v Off.src_port
let get_dst_port v = View.get_u16 v Off.dst_port
let get_len v = View.get_u16 v Off.len
let get_cksum v = View.get_u16 v Off.cksum

let set_fields v ~src_port ~dst_port ~len ~cksum =
  View.set_u16 v Off.src_port src_port;
  View.set_u16 v Off.dst_port dst_port;
  View.set_u16 v Off.len len;
  View.set_u16 v Off.cksum cksum

let parse v =
  if not (has_header v) then None
  else
    Some
      {
        src_port = get_src_port v;
        dst_port = get_dst_port v;
        len = get_len v;
        cksum = get_cksum v;
      }

(* RFC 768: a checksum that computes to 0 is transmitted as all-ones (0
   means "no checksum"). *)
let wire_cksum = function 0 -> 0xffff | c -> c

let pseudo ~src ~dst ~len = Ipv4.pseudo_sum ~src ~dst ~proto:Ipv4.proto_udp ~len

let compute_cksum ~src ~dst v =
  wire_cksum
    (Cksum.finish (Cksum.fold_words (pseudo ~src ~dst ~len:(View.length v)) v))

(* Prepend a UDP header to a payload packet.  [checksum:false] writes 0,
   which RFC 768 defines as "no checksum".  The checksum folds the
   pseudo-header sum and then the chain's segments in place — a
   scatter-gather payload is neither pulled up nor copied. *)
let push pkt ~checksum ~src ~dst ~src_port ~dst_port =
  let len = header_len + Mbuf.length pkt in
  let v = Mbuf.prepend pkt header_len in
  set_fields v ~src_port ~dst_port ~len ~cksum:0;
  if checksum then
    View.set_u16 v Off.cksum
      (wire_cksum (Cksum.finish (Cksum.fold_mbuf (pseudo ~src ~dst ~len) pkt)))

let encapsulate ?(checksum = true) pkt ~src ~dst ~src_port ~dst_port =
  push pkt ~checksum ~src ~dst ~src_port ~dst_port

let max_payload = Ipv4.max_payload - header_len

type drop = Runt | Bad_length | Bad_checksum

let drop_name = function
  | Runt -> "runt"
  | Bad_length -> "bad_length"
  | Bad_checksum -> "bad_checksum"

(* Validate a datagram (header + payload view), reading the header in
   place.  A zero checksum field means the sender disabled
   checksumming. *)
let check ~src ~dst v =
  if not (has_header v) then Some Runt
  else if get_len v <> View.length v then Some Bad_length
  else if
    get_cksum v <> 0
    && Cksum.finish (Cksum.fold_words (pseudo ~src ~dst ~len:(get_len v)) v) <> 0
  then Some Bad_checksum
  else None
