(** Dynamic linking and unlinking of extensions into protection domains.

    Solves the paper's "install" problem: code enters the kernel only if
    it is compiler-signed and all of its imports resolve inside the domain
    it is linked against.  Unlinking reverses every installation the
    extension made. *)

type linked
(** A successfully linked extension instance. *)

val link :
  ?policy:Verifier.policy ->
  domain:Domain.t -> Extension.t -> (linked, Extension.failure) result
(** Verify, resolve and initialize.  On failure the kernel is left exactly
    as it was.  With [policy], the certificate's static resource bound
    ({!Extension.budget}) is checked first: an over-budget (or, under
    [require_cert], uncertified) extension fails with
    [Over_budget] before any of its code runs.  Per-event policies
    ({!Dispatcher.set_policy}) are additionally enforced at each
    [install] the initializer makes, and surface the same way. *)

val unlink : linked -> unit
(** Run the extension's cleanups (handler uninstalls etc.).  Idempotent. *)

val is_linked : linked -> bool
val extension : linked -> Extension.t

(** {1 Live replacement} *)

type swap = {
  swap_installed : int;  (** handlers the new generation installed *)
  swap_retired : int;    (** old-generation handlers removed from dispatch *)
  swap_inflight : int;
      (** deliveries still queued to retired handlers at the flip; they
          drain on the old generation ({!Dispatcher.swap_inflight}
          reaches 0 when the last has run) *)
}

val replace :
  ?policy:Verifier.policy ->
  disp:Dispatcher.t -> domain:Domain.t ->
  linked -> Extension.t -> (linked * swap, Extension.failure) result
(** [replace ~disp ~domain old next] atomically substitutes [next] for
    the running [old]: the new generation's installs are staged and made
    visible in one step, then the old generation is retired — its
    handlers leave dispatch immediately but deliveries queued to them
    before the flip still run to completion.  At every instant a
    matching packet is delivered to exactly one generation; zero are
    dropped.  On link failure the old generation is left running and
    untouched. *)
