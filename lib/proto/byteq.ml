(* A FIFO of bytes supporting random-access reads near the head, used as
   the TCP send buffer: unacknowledged data is blitted (for transmission
   and retransmission) straight into the outgoing segment, and
   acknowledged data is dropped from the front in O(chunks).  Pushed
   strings are kept, never copied, in a ring of chunks. *)

type t = {
  mutable chunks : string array; (* ring; the capacity is a power of two *)
  mutable first : int; (* slot of the head chunk *)
  mutable count : int; (* chunks in the ring *)
  mutable head_off : int; (* bytes of the head chunk already dropped *)
  mutable len : int;
}

let create () =
  { chunks = Array.make 4 ""; first = 0; count = 0; head_off = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* The ring slot of the [i]-th chunk from the head. *)
let slot t i = (t.first + i) land (Array.length t.chunks - 1)

let push t s =
  if String.length s > 0 then begin
    let cap = Array.length t.chunks in
    if t.count = cap then begin
      let grown = Array.make (2 * cap) "" in
      for i = 0 to t.count - 1 do
        grown.(i) <- t.chunks.(slot t i)
      done;
      t.chunks <- grown;
      t.first <- 0
    end;
    t.chunks.(slot t t.count) <- s;
    t.count <- t.count + 1;
    t.len <- t.len + String.length s
  end

(* Copy [len] bytes into [dst] from [skip] bytes into the [i]-th chunk
   onward. *)
let rec blit_from t i skip dst dst_off len =
  if len > 0 then begin
    let chunk = t.chunks.(slot t i) in
    let clen = String.length chunk in
    if skip >= clen then blit_from t (i + 1) (skip - clen) dst dst_off len
    else begin
      let n = if clen - skip < len then clen - skip else len in
      View.blit_string ~src:chunk ~dst ~src_off:skip ~dst_off ~len:n;
      blit_from t (i + 1) 0 dst (dst_off + n) (len - n)
    end
  end

let blit t ~off ~len dst ~dst_off =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Byteq.blit";
  blit_from t 0 (t.head_off + off) dst dst_off len

let rec drop_chunks t n =
  if n > 0 then begin
    let avail = String.length t.chunks.(t.first) - t.head_off in
    if avail <= n then begin
      t.chunks.(t.first) <- "";
      t.first <- slot t 1;
      t.count <- t.count - 1;
      t.head_off <- 0;
      drop_chunks t (n - avail)
    end
    else t.head_off <- t.head_off + n
  end

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Byteq.drop";
  drop_chunks t n;
  t.len <- t.len - n

let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) "";
  t.first <- 0;
  t.count <- 0;
  t.head_off <- 0;
  t.len <- 0
