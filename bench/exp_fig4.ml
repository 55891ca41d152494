(* Figure 4: Saturn configuration matters. Visibility CDFs under three
   configurations — single serializer in Ireland (S-conf), the
   generator-built multi-serializer tree (M-conf), and the peer-to-peer
   timestamp-order variant (P-conf) — for updates Ireland→Frankfurt (10 ms
   bulk) and Tokyo→Sydney (52 ms bulk). Read-dominant workload (90%). *)

open Harness

let star_at site ~dc_sites =
  Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs:(Array.length dc_sites))
    ~placement:[| site |] ~dc_sites:(Array.copy dc_sites) ()

let run () =
  Util.section "Figure 4: S-conf vs M-conf vs P-conf remote update visibility";
  let setup = { Util.quick_setup with Scenario.read_ratio = 0.9 } in
  let dc_sites = Scenario.dc_sites setup in
  let s_conf = { setup with Scenario.saturn_config = Some (star_at Sim.Ec2.i ~dc_sites) } in
  let runs =
    [
      ("M-conf", Scenario.run `Saturn setup);
      ("S-conf", Scenario.run `Saturn s_conf);
      ("P-conf", Scenario.run `Saturn_peer setup);
    ]
  in
  List.iter
    (fun (origin, dest, bulk_ms, caption) ->
      let table =
        Stats.Table.create
          ~title:(Printf.sprintf "%s (bulk %.0f ms)" caption bulk_ms)
          ~columns:Util.cdf_columns
      in
      List.iter
        (fun (name, o) ->
          let sample = Metrics.pair_visibility o.Scenario.metrics ~origin ~dest in
          Stats.Table.add_row table (Util.cdf_row name sample))
        runs;
      Util.print_table table)
    [
      (Sim.Ec2.i, Sim.Ec2.f, 10., "Ireland -> Frankfurt");
      (Sim.Ec2.t, Sim.Ec2.s, 52., "Tokyo -> Sydney");
    ];
  let table =
    Stats.Table.create ~title:"mean deviation from optimal visibility (all pairs)"
      ~columns:[ "config"; "extra ms (mean)" ]
  in
  List.iter
    (fun (name, o) ->
      Stats.Table.add_row table [ name; Printf.sprintf "%.1f" o.Scenario.extra_visibility_ms ])
    runs;
  Util.print_table table
