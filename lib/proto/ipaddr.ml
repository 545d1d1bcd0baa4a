(* IPv4 addresses as 32-bit values carried in a native int. *)

type t = int

let v a b c d =
  if a lor b lor c lor d land lnot 0xff <> 0 then invalid_arg "Ipaddr.v";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let broadcast = 0xffffffff
let any = 0

let of_int i = i land 0xffffffff
let to_int t = t

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try v (int_of_string a) (int_of_string b) (int_of_string c) (int_of_string d)
      with _ -> invalid_arg "Ipaddr.of_string")
  | _ -> invalid_arg "Ipaddr.of_string"

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let pp ppf t = Fmt.string ppf (to_string t)

let equal : t -> t -> bool = ( = )
let in_subnet t ~net ~mask_bits =
  let mask = if mask_bits = 0 then 0 else lnot 0 lsl (32 - mask_bits) land 0xffffffff in
  t land mask = net land mask
