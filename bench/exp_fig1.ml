(* Figure 1: the two problems motivating Saturn.
   (a) the throughput/data-freshness tradeoff of GentleRain vs Cure as the
       number of datacenters grows (full geo-replication), normalized
       against eventual consistency;
   (b) the partial geo-replication problem: staleness overhead as the
       replication degree decreases (nearest-neighbour replica placement). *)

open Harness

let setup_for ~n_dcs ~correlation =
  { Util.quick_setup with Scenario.n_dcs; correlation; n_keys = 100 * n_dcs }

let run_a () =
  Util.section "Figure 1a: throughput penalty and staleness overhead vs #datacenters (full replication)";
  let tput = Stats.Table.create ~title:"throughput penalty vs eventual (%)"
      ~columns:[ "#DCs"; "GentleRain"; "Cure" ] in
  let stale = Stats.Table.create ~title:"data staleness overhead vs eventual (%)"
      ~columns:[ "#DCs"; "GentleRain"; "Cure" ] in
  List.iter
    (fun n_dcs ->
      let setup = setup_for ~n_dcs ~correlation:Workload.Keyspace.Full in
      let ev = Scenario.run `Eventual setup in
      let gr = Scenario.run `Gentlerain setup in
      let cu = Scenario.run `Cure setup in
      let pen o = Util.pct_vs ev.Scenario.throughput o.Scenario.throughput in
      let ovh o = Util.pct_vs ev.Scenario.mean_visibility_ms o.Scenario.mean_visibility_ms in
      Stats.Table.add_row tput
        [ string_of_int n_dcs; Printf.sprintf "%+.1f" (pen gr); Printf.sprintf "%+.1f" (pen cu) ];
      Stats.Table.add_row stale
        [ string_of_int n_dcs; Printf.sprintf "%+.1f" (ovh gr); Printf.sprintf "%+.1f" (ovh cu) ])
    [ 3; 4; 5; 6; 7 ];
  Util.print_table tput;
  Util.print_table stale

let run_b () =
  Util.section "Figure 1b: staleness overhead vs replication degree (partial geo-replication)";
  let table =
    Stats.Table.create ~title:"data staleness overhead vs eventual (%), 7 DCs"
      ~columns:[ "degree"; "GentleRain"; "Cure" ]
  in
  List.iter
    (fun degree ->
      let setup = { Util.quick_setup with Scenario.n_dcs = 7; n_keys = 700 } in
      let rmap =
        Workload.Keyspace.nearest_degree ~topo:Sim.Ec2.topology
          ~dc_sites:(Scenario.dc_sites setup) ~n_keys:setup.Scenario.n_keys ~degree
      in
      let run sys = Scenario.run_with ~rmap sys setup in
      let ev = run `Eventual in
      let gr = run `Gentlerain in
      let cu = run `Cure in
      let ovh o = Util.pct_vs ev.Scenario.mean_visibility_ms o.Scenario.mean_visibility_ms in
      Stats.Table.add_row table
        [ string_of_int degree; Printf.sprintf "%+.1f" (ovh gr); Printf.sprintf "%+.1f" (ovh cu) ])
    [ 5; 4; 3; 2 ];
  Util.print_table table

let run () =
  run_a ();
  run_b ()
