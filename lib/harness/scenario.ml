let all_systems = [ `Eventual; `Saturn; `Gentlerain; `Eunomia; `Okapi; `Cure ]
let systems = [ `Saturn; `Saturn_peer; `Eventual; `Gentlerain; `Cure; `Eunomia; `Okapi ]

type setup = {
  n_dcs : int;
  n_keys : int;
  correlation : Workload.Keyspace.correlation;
  value_size : int;
  read_ratio : float;
  remote_read_ratio : float;
  clients_per_dc : int;
  partitions : int;
  warmup : Sim.Time.t;
  measure : Sim.Time.t;
  cooldown : Sim.Time.t;
  seed : int;
  saturn_config : Saturn.Config.t option;
  serializer_replicas : int;
  bulk_factor : float;
}

let default_setup =
  {
    n_dcs = 7;
    n_keys = 700;
    correlation = Workload.Keyspace.Exponential;
    value_size = 2;
    read_ratio = 0.9;
    remote_read_ratio = 0.;
    clients_per_dc = 40;
    partitions = 2;
    warmup = Sim.Time.of_ms 400;
    measure = Sim.Time.of_sec 1.5;
    cooldown = Sim.Time.of_ms 200;
    seed = 17;
    saturn_config = None;
    serializer_replicas = 1;
    bulk_factor = 1.0;
  }

type outcome = {
  system : Build.system;
  throughput : float;
  ops : int;
  mean_visibility_ms : float;
  extra_visibility_ms : float;
  p90_visibility_ms : float;
  metrics : Metrics.t;
}

let dc_sites setup = Array.of_list (Sim.Ec2.first_n setup.n_dcs)

let replica_map setup =
  let rng = Sim.Rng.create ~seed:(setup.seed * 31 + 5) in
  Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:(dc_sites setup)
    ~n_keys:setup.n_keys setup.correlation

(* Algorithm-3 runs are deterministic in the replica map (n_dcs, n_keys,
   correlation, seed) and the bulk factor; memoize so sweeps that share a
   deployment do not re-solve. *)
let config_cache : (int * int * string * int * float, Saturn.Config.t) Hashtbl.t = Hashtbl.create 8

let solved_config setup =
  let corr = Format.asprintf "%a" Workload.Keyspace.pp_correlation setup.correlation in
  let key = (setup.n_dcs, setup.n_keys, corr, setup.seed, setup.bulk_factor) in
  match Hashtbl.find_opt config_cache key with
  | Some c -> c
  | None ->
    let sites = dc_sites setup in
    let spec =
      { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap:(replica_map setup)) with
        Build.bulk_factor = setup.bulk_factor;
      }
    in
    let c = Build.solve_config spec in
    Hashtbl.replace config_cache key c;
    c

let run_with ?rmap system setup =
  let engine = Sim.Engine.create () in
  let sites = dc_sites setup in
  let rmap_overridden = Option.is_some rmap in
  let rmap = match rmap with Some r -> r | None -> replica_map setup in
  let metrics = Metrics.create ~bulk_factor:setup.bulk_factor engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
  let spec =
    { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
      Build.partitions = setup.partitions;
      saturn_config = None;
      serializer_replicas = setup.serializer_replicas;
      bulk_factor = setup.bulk_factor;
    }
  in
  let saturn_config =
    match (setup.saturn_config, system) with
    | Some c, _ -> Some c
    | None, `Saturn ->
      (* Algorithm 3 is deterministic; memoize for repeated sweeps over the
         same deployment *)
      Some (if rmap_overridden then Build.solve_config spec else solved_config setup)
    | None, _ -> None
  in
  let spec = { spec with Build.saturn_config } in
  let api = Build.make system engine spec metrics in
  let workload =
    Workload.Synthetic.create
      {
        Workload.Synthetic.n_keys = setup.n_keys;
        value_size = setup.value_size;
        read_ratio = setup.read_ratio;
        remote_read_ratio = setup.remote_read_ratio;
        seed = setup.seed;
      }
      ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
  in
  let clients = Driver.make_clients ~dc_sites:sites ~per_dc:setup.clients_per_dc in
  let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
  let result =
    Driver.run engine api metrics ~clients ~next_op ~warmup:setup.warmup ~measure:setup.measure
      ~cooldown:setup.cooldown
  in
  let vis = Metrics.visibility metrics in
  let extra = Metrics.extra_visibility metrics in
  {
    system;
    throughput = result.Driver.throughput;
    ops = result.Driver.ops_completed;
    mean_visibility_ms = Stats.Sample.mean vis;
    extra_visibility_ms = Stats.Sample.mean extra;
    p90_visibility_ms = (if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis 90.);
    metrics;
  }

let run system setup = run_with system setup
let run_all setup = List.map (fun s -> run s setup) all_systems

(* ---- Facebook-based benchmark ------------------------------------------ *)

type social_setup = {
  n_users : int;
  value_size : int;
  min_replicas : int;
  max_replicas : int;
  social_clients_per_dc : int;
  s_warmup : Sim.Time.t;
  s_measure : Sim.Time.t;
  s_cooldown : Sim.Time.t;
  s_seed : int;
}

let default_social_setup =
  {
    n_users = 3500;
    value_size = 64;
    min_replicas = 2;
    max_replicas = 5;
    social_clients_per_dc = 250;
    s_warmup = Sim.Time.of_ms 400;
    s_measure = Sim.Time.of_sec 1.0;
    s_cooldown = Sim.Time.of_ms 200;
    s_seed = 29;
  }

let run_social system s =
  let engine = Sim.Engine.create () in
  let sites = Array.of_list (Sim.Ec2.first_n 7) in
  let graph = Workload.Scale.generate ~n_users:s.n_users ~seed:s.s_seed () in
  let part =
    Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:s.min_replicas
      ~max_replicas:s.max_replicas ~seed:(s.s_seed + 1)
  in
  let rmap = Workload.Social_partition.replica_map part in
  let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
  let spec =
    { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
      Build.saturn_config = None;
    }
  in
  let saturn_config =
    match system with `Saturn -> Some (Build.solve_config spec) | _ -> None
  in
  let spec = { spec with Build.saturn_config } in
  let api = Build.make system engine spec metrics in
  let ops = Workload.Social_ops.create part ~value_size:s.value_size ~seed:(s.s_seed + 2) in
  (* sample active users per datacenter, keyed by master placement *)
  let by_dc = Array.make 7 [] in
  for u = Workload.Scale.n_users graph - 1 downto 0 do
    let m = Workload.Social_partition.master part ~user:u in
    by_dc.(m) <- u :: by_dc.(m)
  done;
  let clients =
    List.concat
      (List.init 7 (fun dc ->
           let users = by_dc.(dc) in
           List.filteri (fun i _ -> i < s.social_clients_per_dc) users
           |> List.map (fun u -> Client.create ~id:u ~home_site:sites.(dc) ~preferred_dc:dc)))
  in
  let next_op (c : Client.t) = Workload.Social_ops.next ops ~user:c.Client.id in
  let result =
    Driver.run engine api metrics ~clients ~next_op ~warmup:s.s_warmup ~measure:s.s_measure
      ~cooldown:s.s_cooldown
  in
  let vis = Metrics.visibility metrics in
  let extra = Metrics.extra_visibility metrics in
  {
    system;
    throughput = result.Driver.throughput;
    ops = result.Driver.ops_completed;
    mean_visibility_ms = Stats.Sample.mean vis;
    extra_visibility_ms = Stats.Sample.mean extra;
    p90_visibility_ms = (if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis 90.);
    metrics;
  }

(* Algorithm 3 over EC2 regions with uniform pair weights: the solved
   configuration, its objective and the metadata-vs-bulk latency table *)
let plan_report ?(seed = 11) dc_sites =
  let topo = Sim.Ec2.topology in
  let n = Array.length dc_sites in
  let bulk i j = Sim.Topology.latency topo dc_sites.(i) dc_sites.(j) in
  let problem =
    {
      Saturn.Config_solver.topo;
      dc_sites = Array.copy dc_sites;
      candidates = Saturn.Config_solver.default_candidates ~dc_sites;
      crit = Saturn.Mismatch.uniform ~n_dcs:n ~bulk;
    }
  in
  let config, score = Saturn.Config_gen.find_configuration ~seed problem in
  let table =
    Stats.Table.create ~title:"metadata vs bulk (ms)" ~columns:[ "pair"; "metadata"; "bulk"; "gap" ]
  in
  let name i = Sim.Topology.name topo dc_sites.(i) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let meta = Sim.Time.to_ms_float (Saturn.Config.metadata_latency config topo ~src_dc:i ~dst_dc:j) in
        let b = Sim.Time.to_ms_float (bulk i j) in
        Stats.Table.add_row table
          [ Printf.sprintf "%s->%s" (name i) (name j); Printf.sprintf "%.0f" meta;
            Printf.sprintf "%.0f" b; Printf.sprintf "%+.0f" (meta -. b) ]
      end
    done
  done;
  Format.asprintf "%a@.weighted mismatch: %.1f ms@.@." Saturn.Config.pp config score
  ^ Stats.Table.render table
