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
  (* A static entry's [expires] is [forever]; every other entry is
     dynamic.  Entries are updated in place, so a refresh allocates
     nothing. *)
  type entry = { mutable mac : Ether.Mac.t; mutable expires : Sim.Stime.t }

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
    mutable dynamic : int;  (* entries that expire *)
    mutable sweep_at : Sim.Stime.t;
        (* no dynamic entry expires before this: the earliest expiry
           left by the last sweep.  Later entries expire later still, as
           every one lives [ttl] from when it was learned *)
  }

  (* Dynamic entries a cache holds at most.  Learning from the wire is
     the one way an untrusted sender adds state here, so it is bounded. *)
  let max_dynamic = 1024

  let forever = Sim.Stime.ns max_int
  let is_dynamic expires = Sim.Stime.to_ns expires <> max_int

  let create ?(ttl = Sim.Stime.s 1200) () =
    {
      entries = Ip_tbl.create 8;
      ttl;
      waiting = Ip_tbl.create 4;
      dynamic = 0;
      sweep_at = Sim.Stime.zero;
    }

  let remove t ip e =
    if is_dynamic e.expires then t.dynamic <- t.dynamic - 1;
    Ip_tbl.remove t.entries ip

  (* The send path's probe: no option and no closure, so a hit allocates
     nothing.  An expired entry is dropped here, as [lookup] drops it. *)
  let find_mac t ~now ip =
    match Ip_tbl.find t.entries ip with
    | e when Sim.Stime.compare now e.expires < 0 -> e.mac
    | e ->
        remove t ip e;
        Ether.Mac.none
    | exception Not_found -> Ether.Mac.none

  let lookup t ~now ip =
    let mac = find_mac t ~now ip in
    if Ether.Mac.equal mac Ether.Mac.none then None else Some mac

  let resolved t ip mac expires =
    (match Ip_tbl.find t.entries ip with
    | e ->
        if is_dynamic e.expires then t.dynamic <- t.dynamic - 1;
        e.mac <- mac;
        e.expires <- expires
    | exception Not_found -> Ip_tbl.add t.entries ip { mac; expires });
    if is_dynamic expires then t.dynamic <- t.dynamic + 1;
    match Ip_tbl.find_opt t.waiting ip with
    | None -> ()
    | Some ks ->
        Ip_tbl.remove t.waiting ip;
        List.iter (fun k -> k mac) (List.rev ks)

  let insert t ~now ip mac = resolved t ip mac (Sim.Stime.add now t.ttl)
  let insert_static t ip mac = resolved t ip mac forever

  (* Drop every expired entry and note when the earliest survivor
     expires. *)
  let sweep t ~now =
    let earliest = ref forever in
    Ip_tbl.filter_map_inplace
      (fun _ e ->
        if Sim.Stime.compare now e.expires >= 0 then begin
          t.dynamic <- t.dynamic - 1;
          None
        end
        else begin
          if Sim.Stime.compare e.expires !earliest < 0 then earliest := e.expires;
          Some e
        end)
      t.entries;
    t.sweep_at <- !earliest

  let has_room t ~now =
    if t.dynamic < max_dynamic then true
    else if Sim.Stime.compare now t.sweep_at < 0 then false
    else begin
      sweep t ~now;
      t.dynamic < max_dynamic
    end

  (* RFC 826's merge: a sender the cache already holds is refreshed, and
     a new one is added only when the message is addressed to this host,
     so a broadcast for some other address adds nothing. *)
  let learn t ~now ~self m =
    if Ip_tbl.mem t.entries m.sender_ip then begin
      insert t ~now m.sender_ip m.sender_mac;
      true
    end
    else if Ipaddr.equal m.target_ip self && has_room t ~now then begin
      insert t ~now m.sender_ip m.sender_mac;
      true
    end
    else false

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
