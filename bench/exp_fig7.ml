(* Figure 7: remote update visibility CDFs of Eventual, Saturn, GentleRain
   and Cure under the default workload, for updates Ireland→Frankfurt (best
   case, 10 ms) and Ireland→Sydney (worst case, 154 ms). *)

open Harness

let run () =
  Util.section "Figure 7: remote update visibility — Saturn vs the state of the art";
  let outcomes = Scenario.run_all Util.quick_setup in
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
      (Sim.Ec2.i, Sim.Ec2.s, 154., "Ireland -> Sydney");
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
