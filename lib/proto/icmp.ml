(* ICMP: echo request/reply — what the paper's stack
   (Figure 1) carries and what ping-style diagnostics need — and the
   error messages (port unreachable, time exceeded) a host or hop sends
   back. *)

let header_len = 8

let type_echo_reply = 0
let type_dest_unreachable = 3
let type_time_exceeded = 11
let type_echo_request = 8

let code_port_unreachable = 3

type message = {
  mtype : int;
  code : int;
  ident : int;
  seq : int;
  payload : string;
}

let parse v =
  if View.length v < header_len then None
  else
    Some
      {
        mtype = View.get_u8 v 0;
        code = View.get_u8 v 1;
        ident = View.get_u16 v 4;
        seq = View.get_u16 v 6;
        payload = View.get_string v ~off:header_len ~len:(View.length v - header_len);
      }

let to_packet m =
  let pkt = Mbuf.alloc (header_len + String.length m.payload) in
  let v = Mbuf.view pkt in
  View.set_u8 v 0 m.mtype;
  View.set_u8 v 1 m.code;
  View.set_u16 v 2 0;
  View.set_u16 v 4 m.ident;
  View.set_u16 v 6 m.seq;
  View.set_string v ~off:header_len m.payload;
  let c = Cksum.of_view (View.ro v) in
  View.set_u16 v 2 c;
  pkt

let valid v = View.length v >= header_len && Cksum.valid v

let echo_request ~ident ~seq payload =
  { mtype = type_echo_request; code = 0; ident; seq; payload }

let echo_reply_of m = { m with mtype = type_echo_reply }

(* RFC 792: an error message quotes the offending datagram's IP header
   and the first 8 bytes of its data; the ident/seq word is unused.  The
   header is written from its record, so a reassembled datagram quotes
   the header it was delivered with. *)
let error ~mtype ~code (h : Ipv4.header) l4 =
  let quoted = Int.min 8 (View.length l4) in
  let pkt = Mbuf.alloc (header_len + Ipv4.header_len + quoted) in
  let v = Mbuf.view pkt in
  View.set_u8 v 0 mtype;
  View.set_u8 v 1 code;
  View.set_u16 v 2 0;
  View.set_u32 v 4 0;
  Ipv4.write (View.shift v header_len) h;
  View.blit ~src:l4 ~dst:v ~src_off:0 ~dst_off:(header_len + Ipv4.header_len)
    ~len:quoted;
  View.set_u16 v 2 (Cksum.of_view (View.ro v));
  pkt
