(* Test entry point: every suite from every library. *)
let () =
  Alcotest.run "plexus"
    (Test_sim.suite @ Test_packet.suite @ Test_datapath.suite
   @ Test_spin.suite @ Test_proto.suite
   @ Test_netsim.suite @ Test_plexus.suite @ Test_osmodel.suite
   @ Test_apps.suite @ Test_features.suite @ Test_more.suite @ Test_fuzz.suite
   @ Test_experiments.suite @ Test_observe.suite @ Test_flowcache.suite
   @ Test_chaos.suite @ Test_scale.suite @ Test_parallel.suite
   @ Test_lifecycle.suite @ Test_receive.suite @ Test_lease.suite)
