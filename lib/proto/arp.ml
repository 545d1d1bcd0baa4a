(* ARP for IPv4 over Ethernet: codec and a resolution cache. *)

let packet_len = 28

let op_request = 1
let op_reply = 2

type message = {
  op : int;
  sender_mac : Ether.Mac.t;
  sender_ip : Ipaddr.t;
  target_mac : Ether.Mac.t;
  target_ip : Ipaddr.t;
}

let parse v =
  if View.length v < packet_len then None
  else if
    View.get_u16 v 0 <> 1 (* htype ethernet *)
    || View.get_u16 v 2 <> Ether.etype_ip
    || View.get_u8 v 4 <> 6
    || View.get_u8 v 5 <> 4
  then None
  else
    Some
      {
        op = View.get_u16 v 6;
        sender_mac = Ether.Mac.of_int (Ether.get_u48 v 8);
        sender_ip = Ipaddr.of_int (View.get_u32 v 14);
        target_mac = Ether.Mac.of_int (Ether.get_u48 v 18);
        target_ip = Ipaddr.of_int (View.get_u32 v 24);
      }

let to_packet m =
  let pkt = Mbuf.alloc packet_len in
  let v = Mbuf.view pkt in
  View.set_u16 v 0 1;
  View.set_u16 v 2 Ether.etype_ip;
  View.set_u8 v 4 6;
  View.set_u8 v 5 4;
  View.set_u16 v 6 m.op;
  Ether.set_u48 v 8 (Ether.Mac.to_int m.sender_mac);
  View.set_u32 v 14 (Ipaddr.to_int m.sender_ip);
  Ether.set_u48 v 18 (Ether.Mac.to_int m.target_mac);
  View.set_u32 v 24 (Ipaddr.to_int m.target_ip);
  pkt

let request ~sender_mac ~sender_ip ~target_ip =
  {
    op = op_request;
    sender_mac;
    sender_ip;
    target_mac = Ether.Mac.of_int 0;
    target_ip;
  }

let reply_to m ~mac =
  {
    op = op_reply;
    sender_mac = mac;
    sender_ip = m.target_ip;
    target_mac = m.sender_mac;
    target_ip = m.sender_ip;
  }

module Cache = struct
  type entry = { mac : Ether.Mac.t; expires : Sim.Stime.t }

  (* Keyed by address with an int equality, so the send path's probe
     never reaches the polymorphic compare.  [Int.hash] is
     [Hashtbl.hash], so buckets and fold order are the generic table's. *)
  module Ip_tbl = Hashtbl.Make (struct
    type t = Ipaddr.t

    let equal = Ipaddr.equal
    let hash a = Int.hash (Ipaddr.to_int a)
  end)

  type t = {
    entries : entry Ip_tbl.t;
    ttl : Sim.Stime.t;
    waiting : (Ether.Mac.t -> unit) list Ip_tbl.t;
  }

  let create ?(ttl = Sim.Stime.s 1200) () =
    { entries = Ip_tbl.create 8; ttl; waiting = Ip_tbl.create 4 }

  (* The send path's probe: no option and no closure, so a hit allocates
     nothing.  An expired entry is dropped here, as [lookup] drops it. *)
  let find_mac t ~now ip =
    match Ip_tbl.find t.entries ip with
    | e when Sim.Stime.compare now e.expires < 0 -> e.mac
    | _ ->
        Ip_tbl.remove t.entries ip;
        Ether.Mac.none
    | exception Not_found -> Ether.Mac.none

  let lookup t ~now ip =
    let mac = find_mac t ~now ip in
    if Ether.Mac.equal mac Ether.Mac.none then None else Some mac

  let resolved t ip mac expires =
    Ip_tbl.replace t.entries ip { mac; expires };
    match Ip_tbl.find_opt t.waiting ip with
    | None -> ()
    | Some ks ->
        Ip_tbl.remove t.waiting ip;
        List.iter (fun k -> k mac) (List.rev ks)

  let insert t ~now ip mac = resolved t ip mac (Sim.Stime.add now t.ttl)
  let insert_static t ip mac = resolved t ip mac (Sim.Stime.ns max_int)

  let wait t ip k =
    let ks = Option.value (Ip_tbl.find_opt t.waiting ip) ~default:[] in
    Ip_tbl.replace t.waiting ip (k :: ks)

  (* Abandoning a resolution must drop its queued continuations, or a
     reply arriving long after the retry budget is spent would fire them
     — transmitting packets the sender gave up on ages ago. *)
  let cancel_waiters t ip =
    match Ip_tbl.find_opt t.waiting ip with
    | None -> 0
    | Some ks ->
        Ip_tbl.remove t.waiting ip;
        List.length ks

  let waiting_count t ip =
    match Ip_tbl.find_opt t.waiting ip with
    | None -> 0
    | Some ks -> List.length ks

  let size t = Ip_tbl.length t.entries
end

let pp_message ppf m =
  Fmt.pf ppf "arp{%s %a(%a) -> %a}"
    (if m.op = op_request then "who-has" else "is-at")
    Ipaddr.pp m.sender_ip Ether.Mac.pp m.sender_mac Ipaddr.pp m.target_ip
