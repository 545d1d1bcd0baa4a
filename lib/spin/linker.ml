(* SPIN's dynamic linker (paper section 2, [SFPB96]).

   [link] verifies the compiler signature, checks the certificate's
   static resource bound against the caller's policy, resolves every
   declared import against the target protection domain, and only then
   runs the extension's initializer.  The initializer receives a
   [linkage] whose [get] enforces two further properties: it refuses
   symbols the extension did not declare (an extension cannot "discover"
   symbols at runtime) and it type-checks each resolution through the
   caller's witness.  If initialization fails, every cleanup registered
   so far is run, so a failed link leaves no residue.

   [unlink] runs the cleanups in reverse registration order, detaching the
   extension's handlers so that protocols "come and go with their
   corresponding applications".

   [replace] is the live-upgrade protocol: stage the next generation's
   installs, link it, flip all of them visible atomically, then retire
   the old generation — handlers with deliveries still queued drain on
   the old code before disappearing.  No packet that matched either
   generation is ever dropped by the swap. *)

type linked = {
  extension : Extension.t;
  domain : Domain.t;
  mutable undo : (unit -> unit) list;
  mutable live : bool;
}

let run_undo l =
  let undo = l.undo in
  l.undo <- [];
  List.iter (fun f -> f ()) undo

let link ?policy ~domain ext =
  if not (Extension.cert_valid ext) then Error Extension.Unsigned
  else
    let admitted =
      match policy with
      | None -> Ok ()
      | Some p -> Verifier.admit p (Extension.budget ext)
    in
    match admitted with
    | Error v -> Error (Extension.Over_budget v)
    | Ok () ->
  begin
    let imports = Extension.imports ext in
    let missing =
      List.filter (fun (iface, sym) -> not (Domain.can_resolve domain ~iface ~sym)) imports
    in
    if missing <> [] then Error (Extension.Unresolved missing)
    else begin
      let l = { extension = ext; domain; undo = []; live = true } in
      let get (type a) (w : a Univ.witness) ~iface ~sym : a =
        if not (List.mem (iface, sym) imports) then
          raise (Extension.Link_failure (Extension.Undeclared_import (iface, sym)));
        match Domain.resolve domain ~iface ~sym with
        | None ->
            raise (Extension.Link_failure (Extension.Unresolved [ (iface, sym) ]))
        | Some u -> (
            match Univ.proj w u with
            | Some v -> v
            | None ->
                raise (Extension.Link_failure (Extension.Type_clash (iface, sym))))
      in
      let linkage =
        { Extension.get; on_unlink = (fun f -> l.undo <- f :: l.undo) }
      in
      match Extension.init ext linkage with
      | () -> Ok l
      | exception Extension.Link_failure f ->
          run_undo l;
          Error f
      | exception Dispatcher.Install_rejected { violation; _ } ->
          (* an event-level policy refused one of the extension's
             handlers mid-init: unwind as a typed budget failure *)
          run_undo l;
          Error (Extension.Over_budget violation)
      | exception e ->
          run_undo l;
          Error (Extension.Init_raised (Printexc.to_string e))
    end
  end

let unlink l =
  if l.live then begin
    l.live <- false;
    run_undo l
  end

let is_linked l = l.live
let extension l = l.extension
type swap = {
  swap_installed : int;  (* handlers the new generation installed *)
  swap_retired : int;    (* old-generation handlers taken out of dispatch *)
  swap_inflight : int;   (* deliveries queued to them at the flip *)
}

let replace ?policy ~disp ~domain old next =
  Dispatcher.begin_staging disp;
  match link ?policy ~domain next with
  | Error e ->
      (* failed link: the staged installs never become visible and the
         old generation keeps running untouched *)
      Dispatcher.abort_staging disp;
      Error e
  | Ok nl ->
      let installed = Dispatcher.commit_staging disp in
      Dispatcher.begin_retiring disp;
      unlink old;
      let retired, inflight = Dispatcher.end_retiring disp in
      Ok
        ( nl,
          {
            swap_installed = installed;
            swap_retired = retired;
            swap_inflight = inflight;
          } )
