(* Write barriers and polymorphic compares per frame on the benchmark's
   deterministic legs.  The executable is linked with GNU ld's --wrap
   for [caml_modify] and the seven polymorphic comparison primitives
   (see runtime_calls_stubs.c), so every such call made outside the
   runtime file that defines it is counted.  The legs are the ones perfbench/ measures words on:

   - udp_ext: [Wl_udp.det_rounds] rounds after [Wl_udp.setup];
   - farm_http: [Wl_farm.det_rounds] slices after [Wl_farm.setup ~seed:1];
   - par_rss: one 1-domain [Par.Node.run] of [Wl_par.plan ~seed:1],
     after the same warm run the benchmark makes.

   Prints one JSON object: per workload, the frames and the calls per
   frame.  The counts are deterministic; CI gates them.

     dune exec bench/runtime_calls.exe *)

external modify_calls : unit -> int = "plexus_modify_calls" [@@noalloc]
external compare_calls : unit -> int = "plexus_compare_calls" [@@noalloc]

(* Calls made by [leg], which returns the frames it carried. *)
let counted name leg =
  let m0 = modify_calls () and c0 = compare_calls () in
  let frames = leg () in
  let m = modify_calls () - m0 and c = compare_calls () - c0 in
  let per x = float_of_int x /. float_of_int frames in
  Printf.sprintf
    "%S: {\"frames\": %d, \"caml_modify_per_frame\": %.3f, \
     \"compare_per_frame\": %.3f}"
    name frames (per m) (per c)

let udp_ext () =
  let w = Pbench.Wl_udp.setup () in
  let rng = Sim.Rng.create 1 and t = Pbench.Pstat.tally () in
  w.Pbench.Udp_world.recording <- true;
  counted "udp_ext" (fun () ->
      let n = ref 0 in
      for _ = 1 to Pbench.Wl_udp.det_rounds do
        n := !n + Pbench.Wl_udp.round w rng t
      done;
      !n)

let farm_http () =
  let w = Pbench.Wl_farm.setup ~seed:1 () in
  w.Pbench.Wl_farm.recording <- true;
  counted "farm_http" (fun () ->
      let n = ref 0 in
      for _ = 1 to Pbench.Wl_farm.det_rounds do
        n := !n + Pbench.Wl_farm.advance w Pbench.Wl_farm.slice
      done;
      !n)

let par_rss () =
  Pbench.Wl_par.setup (Pbench.Wl_par.plan ~seed:1 ~pkts_per_flow:1 ()) ();
  let plan = Pbench.Wl_par.plan ~seed:1 () in
  counted "par_rss" (fun () ->
      ignore (Par.Node.run ~domains:1 plan : Par.Node.stats);
      Array.length plan.Par.Rss.frames)

let () =
  let legs = [ udp_ext (); farm_http (); par_rss () ] in
  print_endline ("{" ^ String.concat ", " legs ^ "}")
