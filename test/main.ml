let () =
  Alcotest.run "saturn"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("series", Test_series.suite);
      ("obs", Test_obs.suite);
      ("spans", Test_spans.suite);
      ("blame", Test_blame.suite);
      ("kvstore", Test_kvstore.suite);
      ("label", Test_label.suite);
      ("tree", Test_tree.suite);
      ("transport", Test_transport.suite);
      ("proxy", Test_proxy.suite);
      ("integration", Test_integration.suite);
      ("system", Test_system.suite);
      ("baselines", Test_baselines.suite);
      ("fabric", Test_fabric.suite);
      ("workload", Test_workload.suite);
      ("scale", Test_scale.suite);
      ("reconfig", Test_reconfig.suite);
      ("consistency", Test_consistency.suite);
      ("harness", Test_harness.suite);
      ("gate", Test_gate.suite);
      ("faults", Test_faults.suite);
      ("more", Test_more.suite);
      ("sessions", Test_sessions.suite);
      ("shapes", Test_shapes.suite);
      ("lint", Test_lint.suite);
    ]
