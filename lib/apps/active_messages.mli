(** Active messages over Ethernet, as a dynamically linked SPIN extension
    running EPHEMERAL handlers at interrupt level (paper section 3.3). *)

type ctx
(** The extension's application-visible state (valid while linked). *)

val extension :
  ?etype:int -> ?budget:Sim.Stime.t -> name:string ->
  handlers:
    (ctx -> int -> src:Proto.Ether.Mac.t -> string -> Spin.Ephemeral.t) ->
  unit -> ctx * Spin.Extension.t
(** Build a signed extension whose link-time initializer installs the
    guard/handler pair of Figure 2.  [handlers ctx idx ~src payload] is
    the ephemeral program run for each message of handler index [idx]. *)

val echo_extension :
  ?etype:int -> ?budget:Sim.Stime.t -> name:string ->
  reply_cost:Sim.Stime.t -> unit -> ctx * Spin.Extension.t
(** An AM responder: messages with handler 0 are echoed back with handler
    1 from interrupt context. *)

val send : ctx -> dst:Proto.Ether.Mac.t -> handler:int -> string -> unit
(** Send an active message.  @raise Invalid_argument when not linked. *)

val received : ctx -> int
(** Messages accepted by this extension's guard so far. *)
