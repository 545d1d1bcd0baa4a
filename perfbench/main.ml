(* The Plexus benchmark: one workload per run.

     main.exe --workload udp_ext|farm_http|par_rss --seed N --seconds S
              --trace 0|1 [--rev REV] [--tamper]

   [--trace 0] measures the end-to-end metrics, [--trace 1] the
   per-layer ledger (see layers.ml).  The last line of standard output
   is the result object; the lines before it record the run's context
   and its latency sample.  The exit code is 0 only when every
   correctness check passed.  [--tamper] makes one correctness check of
   the workload expect a wrong value, to show that a failing check fails
   the run. *)

open Pbench

let usage () =
  prerr_endline
    "usage: main.exe --workload udp_ext|farm_http|par_rss --seed N --seconds S --trace 0|1 \
     [--rev REV] [--tamper]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rev = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | "--tamper" :: rest -> Pstat.tamper := 1; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let t = Pstat.tally () in
  let seed = !seed and seconds = !seconds in
  let end_to_end, ledger, domains_used =
    match !workload with
    | "udp_ext" -> (Wl_udp.end_to_end, Wl_udp.traced, 1)
    | "farm_http" -> (Wl_farm.end_to_end, Wl_farm.traced, 1)
    | "par_rss" -> (Wl_par.end_to_end, Wl_par.traced, Wl_par.domains)
    | _ -> usage ()
  in
  let values, lat =
    if traced then (ledger ~seed ~seconds t, None)
    else
      let setup_s, (values, lat) = end_to_end ~seed ~seconds t in
      (("setup_s", setup_s) :: values, Some lat)
  in
  let latency =
    match lat with
    | None -> []
    | Some lat ->
        let pct p =
          match Pstat.percentile lat p with
          | Some v -> v
          | None ->
              Pstat.fail t ~count:0
                (Printf.sprintf "%d latency samples cannot support p%g" (Array.length lat) p);
              0.
        in
        let p50 = pct 50. and p99 = pct 99. in
        let opt = function Some v -> Pstat.json_float v | None -> "null" in
        print_endline
          (Pstat.json_obj
             [
               ( "latency",
                 Pstat.json_obj
                   [
                     ("samples", string_of_int (Array.length lat));
                     ("p50_sim_us", Pstat.json_float p50);
                     ("p99_sim_us", Pstat.json_float p99);
                     ("tail_percentile", opt (Pstat.tail_percentile (Array.length lat)));
                     ( "tail_sim_us",
                       opt (Option.bind (Pstat.tail_percentile (Array.length lat)) (Pstat.percentile lat)) );
                   ] );
             ]);
        [ ("sim_latency_p99_us", p99) ]
  in
  let metrics = Spec.select ~trace:traced (values @ latency) in
  print_endline
    (Pstat.json_obj
       [
         ( "context",
           Pstat.json_obj
             [
               ("workload", Pstat.json_string !workload);
               ("seed", string_of_int seed);
               ("seconds", Pstat.json_float seconds);
               ("trace", string_of_bool traced);
               ("git_rev", Pstat.json_string !rev);
               ("ocaml", Pstat.json_string Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("domains_used", string_of_int domains_used);
             ] );
       ]);
  List.iter (fun r -> prerr_endline ("perfbench: check failed: " ^ r)) (List.rev t.reasons);
  let correct = t.failed = 0 && t.reasons = [] && t.attempted > 0 in
  print_endline (Pstat.result_line ~correct t metrics);
  exit (if correct then 0 else 1)
