(* Figure 8: Facebook-based benchmark. A synthetic social graph with the
   New Orleans dataset's statistics, the Benevenuto et al. op mix, and
   replication-constrained partitioning (min 2 replicas; max varied 2–5).
   (a) throughput; (b) visibility CDFs Ireland→Frankfurt (best case) and
   Ireland→Tokyo (worst case). *)

open Harness

let run_a () =
  Util.section "Figure 8a: Facebook benchmark throughput vs max replicas per item";
  let columns = "max replicas" :: List.map Build.label Scenario.all_systems in
  let table = Stats.Table.create ~title:"ops/s (min replicas = 2)" ~columns in
  List.iter
    (fun max_replicas ->
      let setup = { Scenario.default_social_setup with Scenario.max_replicas } in
      let row =
        List.map
          (fun sys -> Printf.sprintf "%.0f" (Scenario.run_social sys setup).Scenario.throughput)
          Scenario.all_systems
      in
      Stats.Table.add_row table (string_of_int max_replicas :: row))
    [ 2; 3; 4; 5 ];
  Util.print_table table

let run_b () =
  Util.section "Figure 8b: Facebook benchmark remote update visibility";
  let setup = Scenario.default_social_setup in
  let outcomes = List.map (fun sys -> Scenario.run_social sys setup) Scenario.all_systems in
  List.iter
    (fun (origin, dest, bulk_ms, caption) ->
      let table =
        Stats.Table.create
          ~title:(Printf.sprintf "%s (bulk %.0f ms)" caption bulk_ms)
          ~columns:Util.cdf_columns
      in
      List.iter
        (fun o ->
          let sample = Metrics.pair_visibility o.Scenario.metrics ~origin ~dest in
          Stats.Table.add_row table (Util.cdf_row (Build.label o.Scenario.system) sample))
        outcomes;
      Util.print_table table)
    [
      (Sim.Ec2.i, Sim.Ec2.f, 10., "Ireland -> Frankfurt");
      (Sim.Ec2.i, Sim.Ec2.t, 107., "Ireland -> Tokyo");
    ];
  let summary =
    Stats.Table.create ~title:"average extra visibility vs optimal (all pairs)"
      ~columns:[ "system"; "extra ms (mean)" ]
  in
  List.iter
    (fun o ->
      Stats.Table.add_row summary
        [
          Build.label o.Scenario.system;
          Printf.sprintf "%.1f" o.Scenario.extra_visibility_ms;
        ])
    outcomes;
  Util.print_table summary

let run () =
  run_a ();
  run_b ()
