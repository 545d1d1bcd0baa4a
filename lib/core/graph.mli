(** The Plexus protocol graph: nodes (protocols with PacketRecv events)
    and guarded edges. *)

type t
type node

val create : Netsim.Host.t -> t

val host : t -> Netsim.Host.t
val dispatcher : t -> Spin.Dispatcher.t

val kernel : t -> Spin.Kernel.t

val registry : t -> Observe.Registry.t
(** The owning kernel's metrics registry. *)

val trace : t -> Observe.Trace.t
(** The owning kernel's span endpoint. *)

val node : t -> string -> node
(** Find-or-create a protocol node (and its PacketRecv event). *)

val find_node : t -> string -> node option
val recv_event : node -> Pctx.t Spin.Dispatcher.event

val add_edge : t -> parent:node -> child:string -> label:string -> unit
(** Record a graph edge for introspection (managers call this when they
    install a guarded handler). *)

val remove_edge : t -> parent:string -> child:string -> unit

val finish_flight : t -> Pctx.t -> Observe.Flight.stage -> unit
(** End a sampled packet's flight timeline with a terminal stage. *)

val drop : t -> Pctx.t -> scope:string -> reason:string -> unit
(** A manager's drop: a [Drop] span and a [Drop] terminal stage. *)

val nodes : t -> string list
val edges : t -> (string * string * string) list

val set_delivery : t -> Spin.Dispatcher.delivery -> unit
(** Set every node's delivery mode (Figure 5's interrupt vs. thread). *)

val to_dot : t -> string
(** Render the graph in Graphviz DOT format. *)
