(** Minimal HTTP/1.0 codec (the paper's closing demo is an HTTP server
    running as a Plexus extension). *)

type request = { meth : string; path : string; headers : (string * string) list }

type response = {
  status : int;
  reason : string;
  headers : (string * string) list;
  body : string;
}

val parse_request : string -> request option
val request_to_string : request -> string

val parse_response : string -> response option
(** The head is the text before the first ["\r\n\r\n"] (all of it when
    there is none, with an empty body); only the head is split into
    lines, so body bytes are never read as headers. *)

val response_head : response -> string
(** Status line and headers, with a [content-length] of the body
    prepended, through the blank line. *)

val response_to_string : response -> string
(** [response_head r ^ r.body]. *)

val ok : ?headers:(string * string) list -> string -> response
val not_found : response

(** {1 Incremental reader}

    The one way to read a message off a connection: feed each received
    chunk as it arrives, as the view the connection lends.  The head is
    parsed once, when its blank line arrives; each body byte is copied
    once, out of the view into a buffer sized by Content-Length, so a
    chunk need not outlive the call. *)

type reader

val reader : unit -> reader
val feed : reader -> _ View.t -> unit

val response : reader -> response option
(** At end of stream: what {!parse_response} returns for every byte
    fed.  A body that exactly fills its Content-Length is handed over
    without a copy; the reader keeps no body afterwards, so call this
    once. *)

val on_request : (request option -> unit) -> View.ro View.t -> unit
(** [on_request answer] is a receive callback for one connection: it
    reads the request and calls [answer] once, when the head is in
    ([None] when the start line is not a request line).  Later bytes
    are ignored. *)
