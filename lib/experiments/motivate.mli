(** Section 1.1's motivating claims, measured: WAN transfers need large
    windows; transaction workloads want application-specific TCP. *)

type wan_point = { window : int; mbps : float }

val wan_windows : ?windows:int list -> unit -> wan_point list

type txn_result = { stock_us : float; tuned_us : float }

val transactions : ?n:int -> unit -> txn_result

type blast_result = { tcp_ms : float; blast_ms : float; blast_retx : int }

val blast_vs_tcp : ?loss:float -> ?bytes:int -> unit -> blast_result
(** The same transfer over the same lossy link, stock TCP vs. the
    application-level-framing blast protocol. *)

val print : unit -> unit
