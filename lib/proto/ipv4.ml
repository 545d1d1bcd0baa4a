(* IPv4: header codec, fragmentation fields, protocol numbers and a
   minimal routing decision.  No options are supported (IHL is always 5),
   matching the traffic the paper's experiments generate. *)

let header_len = 20
let default_ttl = 64

(* Protocol numbers *)
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type header = {
  tos : int;
  total_len : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int; (* in 8-byte units *)
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

let make ?(tos = 0) ?(id = 0) ?(dont_fragment = false) ?(more_fragments = false)
    ?(frag_offset = 0) ?(ttl = default_ttl) ~proto ~src ~dst ~payload_len () =
  {
    tos;
    total_len = header_len + payload_len;
    id;
    dont_fragment;
    more_fragments;
    frag_offset;
    ttl;
    proto;
    src;
    dst;
  }

(* The header layout, declared once: each field's byte offset.  [parse],
   [write], the checksum and the in-place accessors below all read
   these. *)
module Off = struct
  let vihl = 0
  let tos = 1
  let total_len = 2
  let id = 4
  let flags_frag = 6
  let ttl = 8
  let proto = 9
  let cksum = 10
  let src = 12
  let dst = 16
end

let flag_df = 0x4000
let flag_mf = 0x2000
let frag_mask = 0x1fff

(* In-place field access: one bounds-checked load per field, no record.
   [has_header] is exactly [parse]'s acceptance test. *)
let has_header v =
  View.length v >= header_len && View.get_u8 v Off.vihl = 0x45

let get_tos v = View.get_u8 v Off.tos
let get_total_len v = View.get_u16 v Off.total_len
let get_id v = View.get_u16 v Off.id
let get_flags_frag v = View.get_u16 v Off.flags_frag
let get_ttl v = View.get_u8 v Off.ttl
let get_proto v = View.get_u8 v Off.proto
let get_src v = Ipaddr.of_int (View.get_u32 v Off.src)
let get_dst v = Ipaddr.of_int (View.get_u32 v Off.dst)

let flags_frag ~dont_fragment ~more_fragments ~frag_offset =
  (if dont_fragment then flag_df else 0)
  lor (if more_fragments then flag_mf else 0)
  lor (frag_offset land frag_mask)

(* The whole header as a record, from a view that [has_header]. *)
let read v =
  let ff = get_flags_frag v in
  {
    tos = get_tos v;
    total_len = get_total_len v;
    id = get_id v;
    dont_fragment = ff land flag_df <> 0;
    more_fragments = ff land flag_mf <> 0;
    frag_offset = ff land frag_mask;
    ttl = get_ttl v;
    proto = get_proto v;
    src = get_src v;
    dst = get_dst v;
  }

let parse v = if has_header v then Some (read v) else None

(* Write every field, then the header checksum over them. *)
let set_fields v ~tos ~total_len ~id ~flags_frag ~ttl ~proto ~src ~dst =
  View.set_u8 v Off.vihl 0x45;
  View.set_u8 v Off.tos tos;
  View.set_u16 v Off.total_len total_len;
  View.set_u16 v Off.id id;
  View.set_u16 v Off.flags_frag flags_frag;
  View.set_u8 v Off.ttl ttl;
  View.set_u8 v Off.proto proto;
  View.set_u16 v Off.cksum 0;
  View.set_u32 v Off.src (Ipaddr.to_int src);
  View.set_u32 v Off.dst (Ipaddr.to_int dst);
  View.set_u16 v Off.cksum (Cksum.of_sub v ~off:0 ~len:header_len)

let write v h =
  set_fields v ~tos:h.tos ~total_len:h.total_len ~id:h.id
    ~flags_frag:
      (flags_frag ~dont_fragment:h.dont_fragment
         ~more_fragments:h.more_fragments ~frag_offset:h.frag_offset)
    ~ttl:h.ttl ~proto:h.proto ~src:h.src ~dst:h.dst

let checksum_valid v =
  View.length v >= header_len && Cksum.of_sub v ~off:0 ~len:header_len = 0

let max_payload = 0xffff - header_len

type drop =
  | Runt | Bad_header | Bad_checksum | Not_ours | Bad_length | Bad_fragment

let drop_name = function
  | Runt -> "runt"
  | Bad_header -> "bad_header"
  | Bad_checksum -> "bad_checksum"
  | Not_ours -> "not_ours"
  | Bad_length -> "bad_length"
  | Bad_fragment -> "bad_fragment"

(* Every field-dependency check a receiver needs before it may slice the
   datagram, over the header in place.  The results are constant blocks,
   so a verdict allocates nothing. *)
let check ~host v =
  let len = View.length v in
  if len < header_len then Some Runt
  else if View.get_u8 v Off.vihl <> 0x45 then Some Bad_header
  else if Cksum.of_sub v ~off:0 ~len:header_len <> 0 then Some Bad_checksum
  else if
    not (Ipaddr.equal (get_dst v) host || Ipaddr.equal (get_dst v) Ipaddr.broadcast)
  then Some Not_ours
  else if get_total_len v < header_len || get_total_len v > len then Some Bad_length
  else None

(* Push an IP header onto a packet whose current contents are the
   payload, written in place (TOS 0, default TTL). *)
let push pkt ~id ~more_fragments ~frag_offset ~proto ~src ~dst =
  let total_len = header_len + Mbuf.length pkt in
  set_fields (Mbuf.prepend pkt header_len) ~tos:0 ~total_len ~id
    ~flags_frag:(flags_frag ~dont_fragment:false ~more_fragments ~frag_offset)
    ~ttl:default_ttl ~proto ~src ~dst

let encapsulate pkt h =
  let v = Mbuf.prepend pkt header_len in
  write v h

(* The UDP/TCP pseudo-header (source, destination, zero, protocol,
   length) as a running checksum sum: the 32-bit addresses fold to the
   sum of their 16-bit halves, so no 12-byte header is ever built. *)
let pseudo_sum ~src ~dst ~proto ~len =
  Ipaddr.to_int src + Ipaddr.to_int dst + proto + len
