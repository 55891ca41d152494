(* Ablations of Saturn's design decisions (DESIGN.md §4):
   1. artificial delays δ on/off — premature labels create false
      dependencies that delay other updates;
   2. migration labels on/off — attach latency at a remote datacenter with
      the fast path vs the conservative per-source stabilization;
   3. chain-replicated serializers (3 replicas) vs single replicas — the
      cost of fault tolerance on the metadata path. *)

open Harness

let run_delays () =
  Util.section "Ablation 1: artificial propagation delays (δ) on/off";
  (* δ only matters when the metadata path can beat the bulk path; over a
     shortest-path matrix it never can, so — as in the paper's motivation
     (§5.3, bulk data "is not necessarily sent through the shortest path") —
     the bulk path is inflated by 40% here *)
  let setup = { Util.quick_setup with Scenario.bulk_factor = 1.4 } in
  let with_delays = Scenario.run `Saturn setup in
  let config = Saturn.Config.copy (Scenario.solved_config setup) in
  Saturn.Config.clear_delays config;
  let without =
    Scenario.run `Saturn { setup with Scenario.saturn_config = Some config }
  in
  let table =
    Stats.Table.create ~title:"remote update visibility"
      ~columns:[ "variant"; "mean extra ms"; "p90 visibility ms" ]
  in
  List.iter
    (fun (label, (o : Scenario.outcome)) ->
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" o.Scenario.extra_visibility_ms;
          Printf.sprintf "%.1f" o.Scenario.p90_visibility_ms;
        ])
    [ ("optimized δ", with_delays); ("δ = 0", without) ];
  Util.print_table table

let run_migration () =
  Util.section "Ablation 2: migration labels vs conservative attach (Ireland -> Frankfurt)";
  (* one roaming client at Ireland keeps reading from Sydney while the
     other clients generate background write traffic *)
  let setup = { Util.quick_setup with Scenario.clients_per_dc = 30 } in
  let measure_remote_cycle ~use_migration =
    let engine = Sim.Engine.create () in
    let sites = Scenario.dc_sites setup in
    let rmap = Scenario.replica_map setup in
    let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
    let spec =
      { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
        Build.saturn_config = Some (Scenario.solved_config setup);
      }
    in
    let api, _ = Build.saturn engine spec metrics in
    (* background load *)
    let workload =
      Workload.Synthetic.create
        { Workload.Synthetic.default with Workload.Synthetic.n_keys = setup.Scenario.n_keys }
        ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
    in
    let background = Driver.make_clients ~dc_sites:sites ~per_dc:20 in
    let running = ref true in
    let rec bg_loop (c : Client.t) () =
      if !running then begin
        match Workload.Synthetic.next workload ~dc:c.Client.preferred_dc with
        | Workload.Op.Read { key } -> api.Api.read c ~key ~k:(fun _ -> bg_loop c ())
        | Workload.Op.Write { key; value } -> api.Api.update c ~key ~value ~k:(fun () -> bg_loop c ())
        | Workload.Op.Remote_read _ -> bg_loop c ()
      end
    in
    List.iter (fun c -> api.Api.attach c ~dc:c.Client.preferred_dc ~k:(bg_loop c)) background;
    (* the roaming client: Ireland -> Sydney -> Ireland cycles *)
    let roamer = Client.create ~id:999_999 ~home_site:Sim.Ec2.i ~preferred_dc:Sim.Ec2.i in
    let durations = Stats.Sample.create () in
    let go_to c dest k =
      if use_migration then api.Api.migrate c ~dest_dc:dest ~k
      else api.Api.attach c ~dc:dest ~k
    in
    let shared_key =
      (* a key replicated at both Ireland and Sydney if any; else key 0 *)
      let rec find k =
        if k >= setup.Scenario.n_keys then 0
        else if
          Kvstore.Replica_map.replicates rmap ~dc:Sim.Ec2.f ~key:k
          && Kvstore.Replica_map.replicates rmap ~dc:Sim.Ec2.i ~key:k
        then k
        else find (k + 1)
      in
      find 0
    in
    let cycles = ref 0 in
    let rec roam () =
      if !running && !cycles < 60 then begin
        incr cycles;
        (* touch local state first so the causal past is non-trivial *)
        api.Api.update roamer ~key:shared_key
          ~value:(Kvstore.Value.make ~payload:(Workload.Synthetic.fresh_payload workload) ~size_bytes:2)
          ~k:(fun () ->
            let t0 = Sim.Engine.now engine in
            go_to roamer Sim.Ec2.f (fun () ->
                api.Api.read roamer ~key:shared_key ~k:(fun _ ->
                    go_to roamer Sim.Ec2.i (fun () ->
                        Stats.Sample.add_time durations (Sim.Time.sub (Sim.Engine.now engine) t0);
                        roam ()))))
      end
    in
    api.Api.attach roamer ~dc:Sim.Ec2.i ~k:roam;
    Sim.Engine.run ~until:(Sim.Time.of_sec 30.) engine;
    running := false;
    api.Api.stop ();
    Sim.Engine.run ~until:(Sim.Time.of_sec 31.) engine;
    durations
  in
  let with_mig = measure_remote_cycle ~use_migration:true in
  let without = measure_remote_cycle ~use_migration:false in
  let table =
    Stats.Table.create ~title:"Ireland->Frankfurt->Ireland remote-read cycle latency (ms)"
      ~columns:[ "variant"; "n"; "mean"; "p90" ]
  in
  List.iter
    (fun (label, s) ->
      Stats.Table.add_row table
        [
          label;
          string_of_int (Stats.Sample.count s);
          Printf.sprintf "%.1f" (Stats.Sample.mean s);
          (if Stats.Sample.is_empty s then "-" else Printf.sprintf "%.1f" (Stats.Sample.percentile s 90.));
        ])
    [ ("migration labels", with_mig); ("conservative attach", without) ];
  Util.print_table table

let run_chain () =
  Util.section "Ablation 3: chain-replicated serializers (fault tolerance) overhead";
  let table =
    Stats.Table.create ~title:"Saturn with replicated serializers"
      ~columns:[ "replicas"; "ops/s"; "extra visibility ms" ]
  in
  List.iter
    (fun replicas ->
      let o =
        Scenario.run `Saturn
          { Util.quick_setup with Scenario.serializer_replicas = replicas }
      in
      Stats.Table.add_row table
        [
          string_of_int replicas;
          Printf.sprintf "%.0f" o.Scenario.throughput;
          Printf.sprintf "%.1f" o.Scenario.extra_visibility_ms;
        ])
    [ 1; 2; 3 ];
  Util.print_table table

let run () =
  run_delays ();
  run_migration ();
  run_chain ()
