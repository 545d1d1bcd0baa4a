(* Ethernet framing.  MAC addresses are 48-bit values in a native int. *)

module Mac = struct
  type t = int

  let broadcast = 0xffffffffffff
  let none = -1
  let of_int i = i land 0xffffffffffff
  let to_int t = t
  let equal : t -> t -> bool = ( = )

  let to_string t =
    Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((t lsr 40) land 0xff)
      ((t lsr 32) land 0xff) ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
      ((t lsr 8) land 0xff) (t land 0xff)

  let pp ppf t = Fmt.string ppf (to_string t)
end

(* EtherType values.  [etype_active_message] is the private type used by
   the paper's active-message extension to demultiplex at the Ethernet
   layer (Figure 2). *)
let etype_ip = 0x0800
let etype_arp = 0x0806
let etype_active_message = 0x88b5 (* IEEE local experimental *)

let header_len = 14

type header = { dst : Mac.t; src : Mac.t; etype : int }

(* The header layout, declared once: each field's byte offset.  [parse],
   [write] and the in-place accessors below all read these. *)
module Off = struct
  let dst = 0
  let src = 6
  let etype = 12
end

let get_u48 v i = (View.get_u16 v i lsl 32) lor View.get_u32 v (i + 2)

let set_u48 v i x =
  View.set_u16 v i ((x lsr 32) land 0xffff);
  View.set_u32 v (i + 2) (x land 0xffffffff)

(* In-place field access: one bounds-checked load per field, no record.
   Meaningful when [has_header] holds (it is exactly [parse]'s test). *)
let has_header v = View.length v >= header_len
let get_dst v = get_u48 v Off.dst
let get_src v = get_u48 v Off.src
let get_etype v = View.get_u16 v Off.etype

let set_fields v ~dst ~src ~etype =
  set_u48 v Off.dst dst;
  set_u48 v Off.src src;
  View.set_u16 v Off.etype etype

let parse v =
  if not (has_header v) then None
  else Some { dst = get_dst v; src = get_src v; etype = get_etype v }

let write v { dst; src; etype } = set_fields v ~dst ~src ~etype

(* Push an Ethernet header onto a packet, written in place. *)
let push pkt ~dst ~src ~etype =
  set_fields (Mbuf.prepend pkt header_len) ~dst ~src ~etype

let encapsulate pkt { dst; src; etype } = push pkt ~dst ~src ~etype
