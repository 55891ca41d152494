(* Sensitivity and scalability experiments beyond the paper's figures,
   backing claims made in its text:
   1. genuine partial replication, quantified: Saturn's metadata traffic
      (label hops through the tree) scales with the correlation, not with
      the number of locations (§2 goal iii, §5.3);
   2. the stabilization period Θ of GentleRain/Cure trades staleness for
      overhead (§7.3.1 runs both at the authors' 5 ms);
   3. Saturn's sink period: the intra-datacenter serialization is off the
      critical path, so throughput is insensitive to it while visibility
      degrades only by the period itself. *)

open Harness

let run_partial () =
  Util.section "Sensitivity 1: metadata traffic under genuine partial replication";
  let table =
    Stats.Table.create
      ~title:"Saturn label traffic per correlation (7 DCs, same op count)"
      ~columns:[ "correlation"; "labels input"; "tree hops"; "hops/label" ]
  in
  List.iter
    (fun correlation ->
      let setup = { Util.quick_setup with Scenario.correlation } in
      (* a dedicated run so the service's traffic counters are reachable *)
      let engine = Sim.Engine.create () in
      let sites = Scenario.dc_sites setup in
      let rmap = Scenario.replica_map setup in
      let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
      let spec =
        { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
          Build.saturn_config = Some (Scenario.solved_config setup);
        }
      in
      let api, system = Build.saturn engine spec metrics in
      let workload =
        Workload.Synthetic.create
          { Workload.Synthetic.default with Workload.Synthetic.n_keys = setup.Scenario.n_keys }
          ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
      in
      let clients = Driver.make_clients ~dc_sites:sites ~per_dc:20 in
      let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
      let _ =
        Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 200)
          ~measure:(Sim.Time.of_ms 800) ~cooldown:(Sim.Time.of_ms 100)
      in
      match Saturn.System.service system with
      | None -> ()
      | Some service ->
        let input = Saturn.Service.labels_input service in
        let hops = Saturn.Service.total_label_hops service in
        Stats.Table.add_row table
          [
            Format.asprintf "%a" Workload.Keyspace.pp_correlation correlation;
            string_of_int input;
            string_of_int hops;
            Printf.sprintf "%.2f" (float_of_int hops /. float_of_int (max input 1));
          ])
    [ Workload.Keyspace.Exponential; Workload.Keyspace.Proportional; Workload.Keyspace.Full ];
  Util.print_table table;
  Util.note
    "Under exponential correlation each label traverses a fraction of the tree; under full\n\
     replication every label floods it — selective forwarding is what keeps Saturn's\n\
     metadata plane scalable."

let run_stabilization_period () =
  Util.section "Sensitivity 2: GentleRain/Cure stabilization period";
  let table =
    Stats.Table.create ~title:"staleness/throughput vs stabilization period (3 DCs)"
      ~columns:[ "period ms"; "GR extra ms"; "GR ops/s"; "Cure extra ms"; "Cure ops/s" ]
  in
  List.iter
    (fun period_ms ->
      let cost =
        { Saturn.Cost_model.default with
          Saturn.Cost_model.stabilization_period = Sim.Time.of_ms period_ms;
        }
      in
      let run sys =
        let setup =
          { Util.quick_setup with Scenario.n_dcs = 3; n_keys = 120; clients_per_dc = 30 }
        in
        (* thread the cost model through a manual run *)
        let engine = Sim.Engine.create () in
        let sites = Scenario.dc_sites setup in
        let rmap = Scenario.replica_map setup in
        let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
        let spec =
          { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with Build.cost = cost }
        in
        let api = Build.make sys engine spec metrics in
        let workload =
          Workload.Synthetic.create
            { Workload.Synthetic.default with Workload.Synthetic.n_keys = setup.Scenario.n_keys }
            ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
        in
        let clients = Driver.make_clients ~dc_sites:sites ~per_dc:30 in
        let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
        let r =
          Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 300)
            ~measure:(Sim.Time.of_ms 800) ~cooldown:(Sim.Time.of_ms 100)
        in
        (Stats.Sample.mean (Metrics.extra_visibility metrics), r.Driver.throughput)
      in
      let gr_extra, gr_tput = run `Gentlerain in
      let cure_extra, cure_tput = run `Cure in
      Stats.Table.add_row table
        [
          string_of_int period_ms;
          Printf.sprintf "%.1f" gr_extra;
          Printf.sprintf "%.0f" gr_tput;
          Printf.sprintf "%.1f" cure_extra;
          Printf.sprintf "%.0f" cure_tput;
        ])
    [ 1; 5; 20; 50 ];
  Util.print_table table

let run_sink_period () =
  Util.section "Sensitivity 3: Saturn label-sink period";
  let table =
    Stats.Table.create ~title:"Saturn vs sink period (7 DCs)"
      ~columns:[ "period ms"; "ops/s"; "extra visibility ms" ]
  in
  List.iter
    (fun period_ms ->
      let cost =
        { Saturn.Cost_model.default with Saturn.Cost_model.sink_period = Sim.Time.of_ms period_ms }
      in
      let setup = Util.quick_setup in
      let engine = Sim.Engine.create () in
      let sites = Scenario.dc_sites setup in
      let rmap = Scenario.replica_map setup in
      let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
      let spec =
        { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
          Build.cost = cost;
          saturn_config = Some (Scenario.solved_config setup);
        }
      in
      let api, _ = Build.saturn engine spec metrics in
      let workload =
        Workload.Synthetic.create
          { Workload.Synthetic.default with Workload.Synthetic.n_keys = setup.Scenario.n_keys }
          ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
      in
      let clients = Driver.make_clients ~dc_sites:sites ~per_dc:setup.Scenario.clients_per_dc in
      let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
      let r =
        Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 300)
          ~measure:(Sim.Time.of_ms 800) ~cooldown:(Sim.Time.of_ms 100)
      in
      Stats.Table.add_row table
        [
          string_of_int period_ms;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Printf.sprintf "%.1f" (Stats.Sample.mean (Metrics.extra_visibility metrics));
        ])
    [ 1; 2; 5; 10 ];
  Util.print_table table;
  Util.note
    "The sink runs off the critical path: throughput is flat; only visibility pays the\n\
     flush period (the paper's deferred-update-stabilization argument [32])."

let run () =
  run_partial ();
  run_stabilization_period ();
  run_sink_period ()
