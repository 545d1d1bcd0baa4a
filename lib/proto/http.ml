(* A minimal HTTP/1.0 codec — enough for the paper's closing demo (an
   HTTP server running as a Plexus extension). *)

type request = { meth : string; path : string; headers : (string * string) list }

type response = {
  status : int;
  reason : string;
  headers : (string * string) list;
  body : string;
}

let crlf = "\r\n"

let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          let k = String.sub line 0 i in
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          Some (String.lowercase_ascii k, v))
    lines

let split_lines s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if String.length l > 0 && l.[String.length l - 1] = '\r' then
           String.sub l 0 (String.length l - 1)
         else l)

let request_of line headers =
  match String.split_on_char ' ' line with
  | [ meth; path; _version ] -> Some { meth; path; headers }
  | _ -> None

let response_of line headers ~body =
  match String.split_on_char ' ' line with
  | _version :: code :: reason -> (
      match int_of_string_opt code with
      | Some status ->
          Some { status; reason = String.concat " " reason; headers; body }
      | None -> None)
  | _ -> None

(* A head's start line and its headers. *)
let parse_head head =
  match split_lines head with
  | line :: rest -> (line, parse_headers rest)
  | [] -> ("", [])

let parse_request s =
  let line, headers = parse_head s in
  request_of line headers

let header_lines headers =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s: %s%s" k v crlf) headers)

let request_to_string r =
  Printf.sprintf "%s %s HTTP/1.0%s%s%s" r.meth r.path crlf
    (header_lines r.headers) crlf

let response_head r =
  let headers =
    ("content-length", string_of_int (String.length r.body)) :: r.headers
  in
  Printf.sprintf "HTTP/1.0 %d %s%s%s%s" r.status r.reason crlf
    (header_lines headers) crlf

let response_to_string r = response_head r ^ r.body

let terminator = "\r\n\r\n"

(* The head ends at the first blank line; without one, the whole text
   is head and the body is empty. *)
let parse_response s =
  if not (String.contains s '\r') then None
  else
    let i = Str_find.find_sub s terminator in
    let head, body =
      if i < 0 then (s, "")
      else (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))
    in
    let line, headers = parse_head head in
    response_of line headers ~body

(* --- incremental reader ---------------------------------------------- *)

(* One message read as it arrives.  Head bytes collect in [acc] while
   [matched] tracks how much of the blank line ends them; the head is
   parsed once, when the blank line completes, and the rest fills one
   body buffer sized by Content-Length (grown by doubling when there is
   none or the body runs past it). *)
type reader = {
  acc : Buffer.t;
  mutable matched : int; (* bytes of [terminator] at [acc]'s end; 4 = head done *)
  mutable line : string; (* start line, once the head is done *)
  mutable headers : (string * string) list;
  mutable body : Bytes.t;
  mutable body_len : int;
}

let reader () =
  {
    acc = Buffer.create 128;
    matched = 0;
    line = "";
    headers = [];
    body = Bytes.empty;
    body_len = 0;
  }

let head_complete r = r.matched = 4

(* A Content-Length past this is trusted only as the body arrives. *)
let max_presize = 1 lsl 20

let complete_head r =
  let line, headers =
    parse_head (Buffer.sub r.acc 0 (Buffer.length r.acc - 4))
  in
  r.line <- line;
  r.headers <- headers;
  match
    Option.bind (List.assoc_opt "content-length" headers) int_of_string_opt
  with
  | Some n when n > 0 -> r.body <- Bytes.create (Int.min n max_presize)
  | _ -> ()

(* The one copy of a body byte: out of the lent view, into the body
   buffer. *)
let append_body r v off n =
  if n > 0 then begin
    let need = r.body_len + n in
    if need > Bytes.length r.body then begin
      let grown =
        Bytes.create (Int.max need (Int.max 256 (2 * Bytes.length r.body)))
      in
      Bytes.blit r.body 0 grown 0 r.body_len;
      r.body <- grown
    end;
    View.blit_to_bytes ~src:v ~src_off:off ~dst:r.body ~dst_off:r.body_len
      ~len:n;
    r.body_len <- need
  end

(* Collect head bytes of [v] from [i] into [r.acc]: the index just past
   the head's blank line, or -1 (with [r.matched] carried to the next
   chunk). *)
let rec scan r v i =
  if r.matched = 4 then i
  else if i = View.length v then -1
  else begin
    let c = Char.unsafe_chr (View.get_u8 v i) in
    Buffer.add_char r.acc c;
    r.matched <-
      (if c = String.unsafe_get terminator r.matched then r.matched + 1
       else if c = '\r' then 1
       else 0);
    scan r v (i + 1)
  end

let feed r v =
  if head_complete r then append_body r v 0 (View.length v)
  else begin
    let stop = scan r v 0 in
    if stop >= 0 then begin
      complete_head r;
      append_body r v stop (View.length v - stop)
    end
  end

let on_request answer =
  let r = reader () in
  fun data ->
    if not (head_complete r) then begin
      feed r data;
      if head_complete r then answer (request_of r.line r.headers)
    end

let response r =
  if not (head_complete r) then parse_response (Buffer.contents r.acc)
  else begin
    let body =
      if r.body_len = Bytes.length r.body then Bytes.unsafe_to_string r.body
      else Bytes.sub_string r.body 0 r.body_len
    in
    (* the string may share the buffer: the reader lets go of it *)
    r.body <- Bytes.empty;
    r.body_len <- 0;
    response_of r.line r.headers ~body
  end

let ok ?(headers = []) body = { status = 200; reason = "OK"; headers; body }

let not_found =
  { status = 404; reason = "Not Found"; headers = []; body = "not found\n" }
