(* A checksummed TCP segment carrying [payload]: [Tcp_wire.to_packet]
   over a one-chunk send queue. *)
let tcp ~src ~dst h payload =
  let q = Proto.Byteq.create () in
  Proto.Byteq.push q payload;
  Proto.Tcp_wire.to_packet ~src ~dst h q ~off:0 ~len:(String.length payload)
