(* The analogue of the Modula-3 VIEW operator from the paper (section 3.2).

   VIEW(a, T) lets typesafe code interpret an array of bytes as a structured
   value without copying.  Here a view is a bounds-checked window onto a
   Bytes.t; all accesses are big-endian (network order) and checked, so no
   extension can read or write outside the window.  The permission phantom
   type distinguishes read-only views (what handlers receive, per the
   paper's READONLY packets) from writable ones. *)

type ro = [ `Ro ]
type rw = [ `Rw ]

exception Out_of_bounds of { index : int; width : int; length : int }

type raw = { data : Bytes.t; off : int; len : int }
type 'perm t = raw

let of_bytes ~off ~len data : rw t =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "View.of_bytes: window outside buffer";
  { data; off; len }

let of_string s : ro t =
  { data = Bytes.of_string s; off = 0; len = String.length s }

let create len : rw t =
  if len < 0 then invalid_arg "View.create";
  { data = Bytes.make len '\000'; off = 0; len }

let length v = v.len

let ro (v : _ t) : ro t = v

let sub (v : 'p t) ~off ~len : 'p t =
  if off < 0 || len < 0 || off + len > v.len then
    raise (Out_of_bounds { index = off; width = len; length = v.len });
  { v with off = v.off + off; len }

let shift (v : 'p t) n : 'p t = sub v ~off:n ~len:(v.len - n)

let check v index width =
  if index < 0 || width < 0 || index + width > v.len then
    raise (Out_of_bounds { index; width; length = v.len })

let get_u8 v i =
  check v i 1;
  Char.code (Bytes.get v.data (v.off + i))

(* Multi-byte accessors do one window check here, then use the runtime's
   native big-endian primitives — a single bounds-checked wide load
   instead of per-byte gets. *)
let get_u16 v i =
  check v i 2;
  Bytes.get_uint16_be v.data (v.off + i)

let get_u32 v i =
  check v i 4;
  Int32.to_int (Bytes.get_int32_be v.data (v.off + i)) land 0xFFFFFFFF

let get_string v ~off ~len =
  check v off len;
  Bytes.sub_string v.data (v.off + off) len

let to_string v = get_string v ~off:0 ~len:v.len

let set_u8 (v : rw t) i x =
  check v i 1;
  Bytes.set v.data (v.off + i) (Char.chr (x land 0xff))

let set_u16 (v : rw t) i x =
  check v i 2;
  Bytes.set_uint16_be v.data (v.off + i) (x land 0xffff)

let set_u32 (v : rw t) i x =
  check v i 4;
  Bytes.set_int32_be v.data (v.off + i) (Int32.of_int x)

let blit_string ~src ~(dst : rw t) ~src_off ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > String.length src then
    invalid_arg "View.blit_string";
  check dst dst_off len;
  Bytes.blit_string src src_off dst.data (dst.off + dst_off) len

let set_string (v : rw t) ~off s =
  blit_string ~src:s ~dst:v ~src_off:0 ~dst_off:off ~len:(String.length s)

let blit ~(src : _ t) ~(dst : rw t) ~src_off ~dst_off ~len =
  check src src_off len;
  check dst dst_off len;
  if len > 0 then Metrics.count_copy len;
  Bytes.blit src.data (src.off + src_off) dst.data (dst.off + dst_off) len

let blit_to_bytes ~(src : _ t) ~src_off ~dst ~dst_off ~len =
  check src src_off len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "View.blit_to_bytes";
  if len > 0 then Metrics.count_copy len;
  Bytes.blit src.data (src.off + src_off) dst dst_off len

let fill (v : rw t) c = Bytes.fill v.data v.off v.len c

let copy (v : _ t) : rw t =
  if v.len > 0 then Metrics.count_copy v.len;
  { data = Bytes.sub v.data v.off v.len; off = 0; len = v.len }

(* Internal accessors for zero-copy cooperation inside this library
   (checksum, mbuf).  Not exposed in the interface. *)
let unsafe_data v = v.data
let unsafe_off v = v.off
let unsafe_cast (v : _ t) : 'p t = v

let fold_u8 f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Char.code (Bytes.get v.data (v.off + i)))
  done;
  !acc

let pp ppf v =
  Fmt.pf ppf "@[<h>";
  for i = 0 to Stdlib.min (v.len - 1) 31 do
    if i > 0 then Fmt.sp ppf ();
    Fmt.pf ppf "%02x" (get_u8 v i)
  done;
  if v.len > 32 then Fmt.pf ppf " ...(%d bytes)" v.len;
  Fmt.pf ppf "@]"
