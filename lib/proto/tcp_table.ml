(* The TCP endpoint table.

   Connections live in a hash table keyed by a (remote ip, remote port,
   local port) record.  A lookup writes the segment's tuple into one
   scratch record, [probe], and probes with it, and every entry stores
   its verdict block, built once when the connection or listener was
   added: finding a connection allocates nothing. *)

type key = {
  mutable rip : int;
  mutable rport : int;
  mutable lport : int;
  mutable live : bool; (* added and not yet removed; not part of the tuple *)
}

(* Listeners by local port: an int-keyed table, so a lookup compares
   ints and never reaches the polymorphic compare. *)
module Ports = Hashtbl.Make (Int)

module Conns = Hashtbl.Make (struct
  type t = key

  let equal a b = a.rip = b.rip && a.rport = b.rport && a.lport = b.lport

  let hash k = Hashtbl.hash ((k.rip lsl 31) lxor (k.rport lsl 16) lxor k.lport)
end)

type ('c, 'l) verdict = Conn of 'c | Listener of 'l | No_match

type ('c, 'l) t = {
  conns : ('c, 'l) verdict Conns.t;
  listeners : ('c, 'l) verdict Ports.t;
  probe : key;
  mutable next_ephemeral : int;
}

let ephemeral_lo = 32768
let ephemeral_hi = 60999

let create () =
  {
    conns = Conns.create 16;
    listeners = Ports.create 8;
    probe = { rip = 0; rport = 0; lport = 0; live = false };
    next_ephemeral = ephemeral_lo;
  }

let find t ~src v =
  let k = t.probe in
  k.rip <- Ipaddr.to_int src;
  k.rport <- Tcp_wire.get_src_port v;
  k.lport <- Tcp_wire.get_dst_port v;
  match Conns.find t.conns k with
  | hit -> hit
  | exception Not_found -> (
      if not (Tcp_wire.opening_syn v) then No_match
      else
        match Ports.find t.listeners k.lport with
        | l -> l
        | exception Not_found -> No_match)

let key ~remote:(rip, rport) ~local_port =
  { rip = Ipaddr.to_int rip; rport; lport = local_port; live = false }

let add t k c =
  if k.live || Conns.mem t.conns k then
    invalid_arg "Tcp_table.add: tuple in use";
  k.live <- true;
  Conns.add t.conns k (Conn c)

let remove t k =
  if k.live then begin
    k.live <- false;
    Conns.remove t.conns k
  end

let length t = Conns.length t.conns

let listen t ~port l =
  if Ports.mem t.listeners port then Error (`Port_in_use port)
  else begin
    Ports.replace t.listeners port (Listener l);
    Ok ()
  end

let unlisten t port = Ports.remove t.listeners port

let alloc_ephemeral t ~dst:(dip, dport) =
  let k = t.probe in
  k.rip <- Ipaddr.to_int dip;
  k.rport <- dport;
  let rec scan tried p =
    if tried > ephemeral_hi - ephemeral_lo then None
    else begin
      let next = if p >= ephemeral_hi then ephemeral_lo else p + 1 in
      k.lport <- p;
      if Ports.mem t.listeners p || Conns.mem t.conns k then
        scan (tried + 1) next
      else begin
        t.next_ephemeral <- next;
        Some p
      end
    end
  in
  scan 0 t.next_ephemeral
