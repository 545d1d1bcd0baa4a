(* A declarative packet-filter language for guards.

   Plexus guards are arbitrary typesafe predicates; the systems they
   replaced used interpreted packet filters (CSPF/BPF, [MRA87], and the
   Mach user-level networking the paper compares its protection model
   to).  This module provides that older style as a first-class value: a
   small expression language over packet fields that managers can accept
   from applications *as data* — no code installation at all — plus a
   cost model for interpretation, so the compiled-guard vs. interpreted-
   filter trade-off is measurable (see the ablations).

   [eval] is the reference semantics: a direct tree interpreter.
   [compile] is a real compilation pipeline in the DPF tradition:
   normalize the AST (constant folding, And/Or flattening, short-circuit
   ordering by field cost), then emit a flat array of closure-free
   instructions run by a tight loop with the packet views hoisted out of
   the per-field reads.  Compilation also exposes each filter's
   *dispatch keys* — literal equalities on demultiplexing fields
   (EtherType, IP protocol, ports) implied by the filter — which the
   dispatcher's merged decision tree switches on to skip non-matching
   guards entirely (PathFinder's prefix collapse).

   Offsets are relative to the packet context's cursor unless the [Abs]
   anchor is used. *)

type anchor =
  | Cur  (** relative to the context cursor (current layer) *)
  | Abs  (** absolute within the frame *)

type field =
  | U8 of anchor * int
  | U16 of anchor * int
  | U32 of anchor * int
  | Ip_proto       (** from the parsed IP header, if present *)
  | Src_port
  | Dst_port
  | Payload_len

type t =
  | True
  | False
  | Eq of field * int
  | Lt of field * int
  | Gt of field * int
  | Mask of field * int * int  (** [(field land mask) = value] *)
  | And of t * t
  | Or of t * t
  | Not of t

let rec nodes = function
  | True | False -> 1
  | Eq _ | Lt _ | Gt _ | Mask _ -> 1
  | And (a, b) | Or (a, b) -> 1 + nodes a + nodes b
  | Not a -> 1 + nodes a

(* Interpretation cost: a handful of 1995 instructions per node. *)
let interp_cost_per_node = Sim.Stime.ns 150

let eval_cost t = Sim.Stime.mul interp_cost_per_node (nodes t)

exception Unavailable

let read_field ctx = function
  | U8 (anchor, off) ->
      let v =
        match anchor with
        | Cur -> Pctx.view ctx
        | Abs -> ctx.Pctx.frame
      in
      if off + 1 > View.length v then raise Unavailable else View.get_u8 v off
  | U16 (anchor, off) ->
      let v =
        match anchor with
        | Cur -> Pctx.view ctx
        | Abs -> ctx.Pctx.frame
      in
      if off + 2 > View.length v then raise Unavailable else View.get_u16 v off
  | U32 (anchor, off) ->
      let v =
        match anchor with
        | Cur -> Pctx.view ctx
        | Abs -> ctx.Pctx.frame
      in
      if off + 4 > View.length v then raise Unavailable else View.get_u32 v off
  | Ip_proto -> (
      match ctx.Pctx.ip with
      | Some h -> h.Proto.Ipv4.proto
      | None -> raise Unavailable)
  | Src_port ->
      if ctx.Pctx.src_port < 0 then raise Unavailable else ctx.Pctx.src_port
  | Dst_port ->
      if ctx.Pctx.dst_port < 0 then raise Unavailable else ctx.Pctx.dst_port
  | Payload_len -> Pctx.payload_len ctx

let rec eval t ctx =
  match t with
  | True -> true
  | False -> false
  | Eq (f, v) -> ( try read_field ctx f = v with Unavailable -> false)
  | Lt (f, v) -> ( try read_field ctx f < v with Unavailable -> false)
  | Gt (f, v) -> ( try read_field ctx f > v with Unavailable -> false)
  | Mask (f, m, v) -> (
      try read_field ctx f land m = v with Unavailable -> false)
  | And (a, b) -> eval a ctx && eval b ctx
  | Or (a, b) -> eval a ctx || eval b ctx
  | Not a -> not (eval a ctx)

(* ---- Normalization ----------------------------------------------------- *)

(* Estimated expense of evaluating a subtree, used to order the operands
   of And/Or so the cheap tests short-circuit the expensive ones.
   Context fields (parsed header state) are cheaper than packet-memory
   reads. *)
let field_expense = function
  | Ip_proto | Src_port | Dst_port | Payload_len -> 0
  | U8 _ | U16 _ | U32 _ -> 1

let rec expense = function
  | True | False -> 0
  | Eq (f, _) | Lt (f, _) | Gt (f, _) | Mask (f, _, _) ->
      1 + (2 * field_expense f)
  | And (a, b) | Or (a, b) -> expense a + expense b
  | Not a -> expense a

let rec flat_and t acc =
  match t with And (a, b) -> flat_and a (flat_and b acc) | t -> t :: acc

let rec flat_or t acc =
  match t with Or (a, b) -> flat_or a (flat_or b acc) | t -> t :: acc

let rebuild join = function
  | [] -> invalid_arg "Filter.rebuild"
  | c :: rest -> List.fold_left (fun acc x -> join acc x) c rest

(* Constant folding, flattening, short-circuit ordering.  Evaluation-
   order changes are sound because tests are pure: an unavailable field
   makes its own comparison false without affecting any other test.
   (Constant folds assume well-formed filters, i.e. non-negative
   offsets.) *)
let rec normalize t =
  match t with
  | True | False | Eq _ | Lt _ | Gt _ -> t
  | Mask (_, m, v) when v land m <> v ->
      False (* bits of [v] outside [m] can never survive the mask *)
  | Mask _ -> t
  | Not a -> (
      match normalize a with
      | True -> False
      | False -> True
      | Not b -> b
      | a' -> Not a')
  | And (a, b) ->
      let cs =
        flat_and (normalize a) (flat_and (normalize b) [])
        |> List.concat_map (fun c -> flat_and c [])
      in
      if List.mem False cs then False
      else begin
        match
          List.filter (fun c -> c <> True) cs
          |> List.stable_sort (fun x y -> compare (expense x) (expense y))
        with
        | [] -> True
        | cs -> rebuild (fun x y -> And (x, y)) cs
      end
  | Or (a, b) ->
      let cs =
        flat_or (normalize a) (flat_or (normalize b) [])
        |> List.concat_map (fun c -> flat_or c [])
      in
      if List.mem True cs then True
      else begin
        match
          List.filter (fun c -> c <> False) cs
          |> List.stable_sort (fun x y -> compare (expense x) (expense y))
        with
        | [] -> False
        | cs -> rebuild (fun x y -> Or (x, y)) cs
      end

(* ---- Dispatch keys ----------------------------------------------------- *)

type key_field = Key_ether_type | Key_ip_proto | Key_src_port | Key_dst_port

type key = { kfield : key_field; kvalue : int }

let key_tag = function
  | Key_ether_type -> 0
  | Key_ip_proto -> 1
  | Key_src_port -> 2
  | Key_dst_port -> 3

let key_code { kfield; kvalue } = (key_tag kfield lsl 16) lor (kvalue land 0xffff)

let ether_type_key etype = key_code { kfield = Key_ether_type; kvalue = etype }
let ip_proto_key proto = key_code { kfield = Key_ip_proto; kvalue = proto }
let dst_port_key port = key_code { kfield = Key_dst_port; kvalue = port }

(* Fields the dispatch tree can switch on, with the field's value width:
   a literal test against such a field is a dispatch key when it is
   equivalent to full-width equality. *)
let keyable_field = function
  | Ip_proto -> Some (Key_ip_proto, 0xff)
  | Src_port -> Some (Key_src_port, 0xffff)
  | Dst_port -> Some (Key_dst_port, 0xffff)
  | U16 (Abs, o) when o = Proto.Ether.Off.etype ->
      Some (Key_ether_type, 0xffff) (* the EtherType slot *)
  | _ -> None

let key_of_conjunct = function
  | Eq (f, v) -> (
      match keyable_field f with
      | Some (kf, width) when v >= 0 && v <= width ->
          Some { kfield = kf; kvalue = v }
      | _ -> None)
  | Mask (f, m, v) -> (
      (* a mask covering the field's full width is plain equality *)
      match keyable_field f with
      | Some (kf, width) when m land width = width && v >= 0 && v <= width ->
          Some { kfield = kf; kvalue = v }
      | _ -> None)
  | _ -> None

(* Every keyable equality the filter's top-level conjunction implies, for
   the dispatcher's merged decision tree (one key per demux dimension the
   filter pins).  Each is sound on its own: a filter keyed on dimension D
   with value v evaluates to false on every context that does not present
   (D, v) in [read_context_keys] — either the dimension is unavailable
   (its test reads Unavailable, hence false) or it carries a different
   value (the equality fails).  That invariant is what lets the tree skip
   the guard off the key's path without changing delivery. *)
let key_conjuncts t =
  match normalize t with
  | True | False -> []
  | t' ->
      flat_and t' []
      |> List.filter_map key_of_conjunct
      |> List.map key_code
      |> List.sort_uniq compare

(* A filter is [keys_exact] when its normalized form is nothing but
   keyable equality conjuncts: a payload that presents every key *is* a
   match, so a dispatch path that proved all of them may skip the guard
   entirely rather than re-running it as a residual check. *)
let keys_exact t =
  match normalize t with
  | True | False -> false
  | t' -> List.for_all (fun c -> key_of_conjunct c <> None) (flat_and t' [])

(* ---- Flow signatures --------------------------------------------------- *)

let frame_ether_type v =
  if Proto.Ether.has_header v then Proto.Ether.get_etype v else -1

(* Field positions within the frame, from the headers' own layout
   declarations: IP follows the Ethernet header, and UDP and TCP share
   the port slots at the start of the transport header. *)
let l3 = Proto.Ether.header_len
let l4 = l3 + Proto.Ipv4.header_len

(* The signature packs every field the steady-state demux decision can
   depend on, and nothing else: dst MAC (0), EtherType (6), IP proto
   (8), src/dst address (9, 13), src/dst port (17, 19), and a presence
   byte (21) so absent fields (written as all-ones) cannot collide with
   real zero/0xffff values.  Compared by exact byte equality — no
   hashing unsoundness. *)
let signature_len = 22

let put_u32 b off x =
  Bytes.set_uint16_be b off ((x lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (x land 0xffff)

let put_signature b ~dst_mac ~ether_type ~ip_proto ~src_addr ~dst_addr
    ~src_port ~dst_port =
  Bytes.set_uint16_be b 0 ((dst_mac lsr 32) land 0xffff);
  put_u32 b 2 dst_mac;
  Bytes.set_uint16_be b 6 (ether_type land 0xffff);
  Bytes.set_uint8 b 8 (ip_proto land 0xff);
  put_u32 b 9 src_addr;
  put_u32 b 13 dst_addr;
  Bytes.set_uint16_be b 17 (src_port land 0xffff);
  Bytes.set_uint16_be b 19 (dst_port land 0xffff);
  Bytes.set_uint8 b 21
    ((if dst_mac >= 0 then 1 else 0)
    lor (if ether_type >= 0 then 2 else 0)
    lor (if ip_proto >= 0 then 4 else 0)
    lor if src_port >= 0 then 8 else 0)

(* Write a raw frame's signature into [b], reading each field in place.
   An IPv4 fragment, or a header whose IHL is not 5, is refused: the
   port slots would not hold the L4 ports. *)
let write_frame_signature v b =
  let len = View.length v in
  let dst_mac =
    if len >= Proto.Ether.Off.dst + 6 then
      Proto.Ether.get_u48 v Proto.Ether.Off.dst
    else -1
  in
  let ether_type = frame_ether_type v in
  if ether_type = Proto.Ether.etype_ip && len >= l4 then begin
    let frag = View.get_u16 v (l3 + Proto.Ipv4.Off.flags_frag) in
    if frag land 0x3fff <> 0 || View.get_u8 v (l3 + Proto.Ipv4.Off.vihl) <> 0x45
    then false
    else begin
      let ip_proto = View.get_u8 v (l3 + Proto.Ipv4.Off.proto) in
      let ports =
        (ip_proto = Proto.Ipv4.proto_udp || ip_proto = Proto.Ipv4.proto_tcp)
        && len >= l4 + Proto.Udp.Off.dst_port + 2
      in
      put_signature b ~dst_mac ~ether_type ~ip_proto
        ~src_addr:(View.get_u32 v (l3 + Proto.Ipv4.Off.src))
        ~dst_addr:(View.get_u32 v (l3 + Proto.Ipv4.Off.dst))
        ~src_port:
          (if ports then View.get_u16 v (l4 + Proto.Udp.Off.src_port) else -1)
        ~dst_port:
          (if ports then View.get_u16 v (l4 + Proto.Udp.Off.dst_port) else -1);
      true
    end
  end
  else begin
    put_signature b ~dst_mac ~ether_type ~ip_proto:(-1) ~src_addr:(-1)
      ~dst_addr:(-1) ~src_port:(-1) ~dst_port:(-1);
    true
  end

(* Only a *fresh* context — cursor at 0, nothing parsed yet — is a raw
   frame whose bytes the signature can describe.  A reassembled datagram
   or a mid-graph context re-raised as a root would alias unrelated
   bytes into the demux fields, so it is refused (cache bypass), as are
   fragments. *)
let write_signature ctx b =
  match ctx.Pctx.ip with
  | None when ctx.Pctx.off = 0 && ctx.Pctx.src_port < 0 ->
      write_frame_signature ctx.Pctx.frame b
  | _ -> false

let flow_signature ctx =
  let b = Bytes.create signature_len in
  if write_signature ctx b then Some (Bytes.unsafe_to_string b) else None

(* The dispatch keys a packet context *presents*, one per demux
   dimension available at the current layer.  The dispatcher hands a
   per-event scratch array of [num_key_dims] slots indexed by key tag
   ([key_tag], the [k lsr 16] of an encoded key) and the probe writes
   each dimension's raw value, [-1] for absent. *)
let num_key_dims = 4

let read_context_keys ctx dst =
  dst.(0) <- frame_ether_type ctx.Pctx.frame;
  dst.(1) <- (match ctx.Pctx.ip with Some h -> h.Proto.Ipv4.proto | None -> -1);
  dst.(2) <- ctx.Pctx.src_port;
  dst.(3) <- ctx.Pctx.dst_port

(* ---- Compilation ------------------------------------------------------- *)

(* Flat, closure-free instruction form (the DPF move: the predicate
   becomes straight-line code, no interpreter recursion).  Each
   instruction reads one field, applies one comparison, and jumps to
   [jt]/[jf]: a non-negative target is the next instruction index,
   [ret_true]/[ret_false] terminate. *)

type op = Oeq | Olt | Ogt | Omask

type inst = {
  iop : op;
  ifld : field;
  ia : int;  (* comparison operand (the expected value) *)
  im : int;  (* mask for [Omask] *)
  jt : int;
  jf : int;
}

type program = {
  code : inst array;
  entry : int;
  uses_cur : bool;
}

let ret_true = -1
let ret_false = -2

let compile t =
  let t = normalize t in
  let rev = ref [] and n = ref 0 in
  let push i =
    rev := i :: !rev;
    let idx = !n in
    incr n;
    idx
  in
  let rec emit t ~jt ~jf =
    match t with
    | True -> jt
    | False -> jf
    | Eq (f, v) -> push { iop = Oeq; ifld = f; ia = v; im = 0; jt; jf }
    | Lt (f, v) -> push { iop = Olt; ifld = f; ia = v; im = 0; jt; jf }
    | Gt (f, v) -> push { iop = Ogt; ifld = f; ia = v; im = 0; jt; jf }
    | Mask (f, m, v) -> push { iop = Omask; ifld = f; ia = v; im = m; jt; jf }
    | And (a, b) ->
        let lb = emit b ~jt ~jf in
        emit a ~jt:lb ~jf
    | Or (a, b) ->
        let lb = emit b ~jt ~jf in
        emit a ~jt ~jf:lb
    | Not a -> emit a ~jt:jf ~jf:jt
  in
  let entry = emit t ~jt:ret_true ~jf:ret_false in
  let code = Array.of_list (List.rev !rev) in
  let uses_cur =
    Array.exists
      (fun i ->
        match i.ifld with
        | U8 (Cur, _) | U16 (Cur, _) | U32 (Cur, _) -> true
        | _ -> false)
      code
  in
  { code; entry; uses_cur }

let program_length p = Array.length p.code

(* One comparison plus a couple of loads per instruction — the compiled
   loop touches a fraction of what the tree interpreter does, and the
   managers charge it accordingly. *)
let compiled_cost_per_inst = Sim.Stime.ns 40
let compiled_overhead = Sim.Stime.ns 60

let compiled_cost p =
  Sim.Stime.add compiled_overhead
    (Sim.Stime.mul compiled_cost_per_inst (Array.length p.code))

let empty_view : View.ro View.t = View.of_string ""

(* [min_int] is the in-band Unavailable: no packet field can produce it
   (reads are unsigned, ports use -1, payload lengths are small). *)
let unavailable = min_int

let run p ctx =
  let cur = if p.uses_cur then Pctx.view ctx else empty_view in
  let abs = ctx.Pctx.frame in
  let code = p.code in
  let rec go pc =
    if pc < 0 then pc = ret_true
    else begin
      let i = Array.unsafe_get code pc in
      let v =
        match i.ifld with
        | U8 (Cur, off) ->
            if off + 1 > View.length cur then unavailable
            else View.get_u8 cur off
        | U8 (Abs, off) ->
            if off + 1 > View.length abs then unavailable
            else View.get_u8 abs off
        | U16 (Cur, off) ->
            if off + 2 > View.length cur then unavailable
            else View.get_u16 cur off
        | U16 (Abs, off) ->
            if off + 2 > View.length abs then unavailable
            else View.get_u16 abs off
        | U32 (Cur, off) ->
            if off + 4 > View.length cur then unavailable
            else View.get_u32 cur off
        | U32 (Abs, off) ->
            if off + 4 > View.length abs then unavailable
            else View.get_u32 abs off
        | Ip_proto -> (
            match ctx.Pctx.ip with
            | Some h -> h.Proto.Ipv4.proto
            | None -> unavailable)
        | Src_port ->
            if ctx.Pctx.src_port < 0 then unavailable else ctx.Pctx.src_port
        | Dst_port ->
            if ctx.Pctx.dst_port < 0 then unavailable else ctx.Pctx.dst_port
        | Payload_len -> Pctx.payload_len ctx
      in
      let hit =
        v <> unavailable
        &&
        match i.iop with
        | Oeq -> v = i.ia
        | Olt -> v < i.ia
        | Ogt -> v > i.ia
        | Omask -> v land i.im = i.ia
      in
      go (if hit then i.jt else i.jf)
    end
  in
  go p.entry

let compile_guard t =
  let p = compile t in
  fun ctx -> run p ctx

(* Common building blocks. *)
let ip_proto_is proto = Eq (Ip_proto, proto)
let dst_port_is port = Eq (Dst_port, port)
let src_port_is port = Eq (Src_port, port)

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Eq (f, v) -> Fmt.pf ppf "%a = %d" pp_field f v
  | Lt (f, v) -> Fmt.pf ppf "%a < %d" pp_field f v
  | Gt (f, v) -> Fmt.pf ppf "%a > %d" pp_field f v
  | Mask (f, m, v) -> Fmt.pf ppf "(%a & 0x%x) = %d" pp_field f m v
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
  | Not a -> Fmt.pf ppf "!(%a)" pp a

and pp_field ppf = function
  | U8 (Cur, o) -> Fmt.pf ppf "u8[%d]" o
  | U8 (Abs, o) -> Fmt.pf ppf "u8[@%d]" o
  | U16 (Cur, o) -> Fmt.pf ppf "u16[%d]" o
  | U16 (Abs, o) -> Fmt.pf ppf "u16[@%d]" o
  | U32 (Cur, o) -> Fmt.pf ppf "u32[%d]" o
  | U32 (Abs, o) -> Fmt.pf ppf "u32[@%d]" o
  | Ip_proto -> Fmt.string ppf "ip.proto"
  | Src_port -> Fmt.string ppf "src_port"
  | Dst_port -> Fmt.string ppf "dst_port"
  | Payload_len -> Fmt.string ppf "payload_len"
