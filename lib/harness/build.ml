type spec = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  saturn_config : Saturn.Config.t option;
  serializer_replicas : int;
  bulk_factor : float;
}

let default_spec ~topo ~dc_sites ~rmap =
  {
    topo;
    dc_sites;
    partitions = 2;
    frontends = 2;
    cost = Saturn.Cost_model.default;
    rmap;
    saturn_config = None;
    serializer_replicas = 1;
    bulk_factor = 1.0;
  }

(* three sites with unequal latencies, so the solver-independent chain tree
   below has a genuinely asymmetric geography to work against *)
let topo3 () =
  Sim.Topology.create
    ~names:[| "west"; "central"; "east" |]
    ~latency_ms:[| [| 0; 40; 90 |]; [| 40; 0; 50 |]; [| 90; 50; 0 |] |]

(* an explicit chain of three serializers (one per datacenter). The smoke
   scenario must exercise serializer-to-serializer forwarding; the solved
   configuration for three sites can collapse to a star, which never hops. *)
let chain_config ~dc_sites =
  let tree = Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 1; 2 |] in
  let config = Saturn.Config.create ~tree ~placement:(Array.copy dc_sites) ~dc_sites () in
  (* small artificial delays so the δ-wait path is traced too *)
  Saturn.Config.set_delay config ~from:1 ~hop:(Saturn.Config.To_dc 1) (Sim.Time.of_ms 2);
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 1);
  config

(* a pre-computed backup tree for the same three datacenters (§6.2): two
   serializers at the chain's endpoints, so the epoch-2 topology is
   genuinely different from the 0–1–2 chain it replaces *)
let backup_config ~dc_sites =
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |] in
  Saturn.Config.create ~tree
    ~placement:[| dc_sites.(0); dc_sites.(2) |]
    ~dc_sites:(Array.copy dc_sites) ()

let solve_config spec =
  let bulk i j =
    let lat = Sim.Topology.latency spec.topo spec.dc_sites.(i) spec.dc_sites.(j) in
    Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. spec.bulk_factor))
  in
  let crit = Saturn.Mismatch.of_replica_map spec.rmap ~bulk in
  let crit =
    (* fully-disjoint replica maps would zero every weight; fall back to
       uniform weights in that case *)
    let any = ref false in
    for i = 0 to Array.length spec.dc_sites - 1 do
      for j = 0 to Array.length spec.dc_sites - 1 do
        if i <> j && crit.Saturn.Mismatch.weight i j > 0. then any := true
      done
    done;
    if !any then crit else Saturn.Mismatch.uniform ~n_dcs:(Array.length spec.dc_sites) ~bulk
  in
  let problem =
    {
      Saturn.Config_solver.topo = spec.topo;
      dc_sites = Array.copy spec.dc_sites;
      candidates = Saturn.Config_solver.default_candidates ~dc_sites:spec.dc_sites;
      crit;
    }
  in
  fst (Saturn.Config_gen.find_configuration ~seed:11 problem)

let hooks_of_metrics metrics =
  {
    Saturn.System.on_visible =
      (fun ~dc ~key ~origin_dc ~origin_time ~value ->
        Metrics.on_visible metrics ~dc ~key ~origin_dc ~origin_time ~value);
  }

let saturn_with ~peer ?registry ?series ?faults engine spec metrics =
  let config =
    match spec.saturn_config with
    | Some c -> c
    | None ->
      if peer then
        (* placeholder tree; unused in peer mode *)
        Saturn.Config.create
          ~tree:(Saturn.Tree.star ~n_dcs:(Array.length spec.dc_sites))
          ~placement:[| spec.dc_sites.(0) |] ~dc_sites:(Array.copy spec.dc_sites) ()
      else solve_config spec
  in
  let params =
    {
      Saturn.System.topo = spec.topo;
      dc_sites = Array.copy spec.dc_sites;
      partitions = spec.partitions;
      frontends = spec.frontends;
      cost = spec.cost;
      rmap = spec.rmap;
      config;
      serializer_replicas = spec.serializer_replicas;
      peer_mode = peer;
      bulk_factor = spec.bulk_factor;
      clock_offsets = None;
    }
  in
  let system = Saturn.System.create ?registry ?series engine params (hooks_of_metrics metrics) in
  Option.iter (fun f -> Faults.Registry.bind_system f system) faults;
  let table : (int, Saturn.Client_lib.t) Hashtbl.t = Hashtbl.create 256 in
  let lib (c : Client.t) =
    match Hashtbl.find table c.Client.id with
    | l -> l
    | exception Not_found ->
      let l =
        Saturn.Client_lib.create ~id:c.Client.id ~home_site:c.Client.home_site
          ~preferred_dc:c.Client.preferred_dc
      in
      Hashtbl.replace table c.Client.id l;
      l
  in
  let api =
    {
      Api.name = (if peer then "saturn-peer" else "saturn");
      attach =
        (fun c ~dc ~k ->
          Saturn.System.attach system (lib c) ~dc ~k:(fun () ->
              c.Client.current_dc <- dc;
              k ()));
      read = (fun c ~key ~k -> Saturn.System.read system (lib c) ~key ~k);
      update = (fun c ~key ~value ~k -> Saturn.System.update system (lib c) ~key ~value ~k);
      migrate =
        (fun c ~dest_dc ~k ->
          Saturn.System.migrate system (lib c) ~dest_dc ~k:(fun () ->
              c.Client.current_dc <- dest_dc;
              k ()));
      stop = (fun () -> Saturn.System.stop system);
      store_value =
        (fun ~dc ~key ->
          let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key in
          Option.map fst (Kvstore.Store.get store ~key));
    }
  in
  (api, system)

let saturn ?registry ?series ?faults engine spec metrics =
  saturn_with ~peer:false ?registry ?series ?faults engine spec metrics

let saturn_peer ?registry ?series ?faults engine spec metrics =
  saturn_with ~peer:true ?registry ?series ?faults engine spec metrics

let baseline_params spec =
  {
    Baselines.Common.topo = spec.topo;
    dc_sites = Array.copy spec.dc_sites;
    partitions = spec.partitions;
    frontends = spec.frontends;
    cost = spec.cost;
    rmap = spec.rmap;
    bulk_factor = spec.bulk_factor;
  }

let baseline_hooks metrics =
  {
    Baselines.Common.on_visible =
      (fun ~dc ~key ~origin_dc ~origin_time ~value ->
        Metrics.on_visible metrics ~dc ~key ~origin_dc ~origin_time ~value);
  }

(* One Api.t over any baseline: the client surface is the fabric's *)
let of_baseline (type a) (module B : Baselines.Common.S with type t = a) ?faults (sys : a) =
  let geo = B.fabric sys in
  Option.iter (fun f -> Faults.Registry.bind_fabric f geo) faults;
  let attach (c : Client.t) ~dc ~k =
    Baselines.Common.attach geo ~client:c.Client.id ~home:c.Client.home_site ~dc ~k:(fun () ->
        c.Client.current_dc <- dc;
        k ())
  in
  {
    Api.name = B.name;
    attach;
    read =
      (fun c ~key ~k ->
        Baselines.Common.read geo ~client:c.Client.id ~home:c.Client.home_site
          ~dc:c.Client.current_dc ~key ~k);
    update =
      (fun c ~key ~value ~k ->
        Baselines.Common.update geo ~client:c.Client.id ~home:c.Client.home_site
          ~dc:c.Client.current_dc ~key ~value ~k);
    migrate = (fun c ~dest_dc ~k -> attach c ~dc:dest_dc ~k);
    stop = (fun () -> Baselines.Common.stop geo);
    store_value = (fun ~dc ~key -> Baselines.Common.store_value geo ~dc ~key);
  }

let meta_of ?registry system =
  Option.map (fun r -> Stats.Meta_bytes.create r ~system) registry

let eventual ?registry ?series ?faults engine spec metrics =
  let meta = meta_of ?registry Baselines.Eventual.name in
  Baselines.Eventual.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  |> of_baseline (module Baselines.Eventual) ?faults

let gentlerain ?registry ?series engine spec metrics =
  let meta = meta_of ?registry Baselines.Gentlerain.name in
  Baselines.Gentlerain.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  |> of_baseline (module Baselines.Gentlerain)

let cure ?registry ?series engine spec metrics =
  let meta = meta_of ?registry Baselines.Cure.name in
  Baselines.Cure.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  |> of_baseline (module Baselines.Cure)

let cops ?registry ?series engine spec metrics ~prune_on_write =
  let meta = meta_of ?registry Baselines.Cops.name in
  let sys =
    Baselines.Cops.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
      ~prune_on_write
  in
  (of_baseline (module Baselines.Cops) sys, sys)

let orbe ?registry ?series engine spec metrics =
  let meta = meta_of ?registry Baselines.Orbe.name in
  let sys =
    Baselines.Orbe.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  in
  (of_baseline (module Baselines.Orbe) sys, sys)

let eunomia ?registry ?series ?faults engine spec metrics =
  let meta = meta_of ?registry Baselines.Eunomia.name in
  let sys =
    Baselines.Eunomia.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  in
  let api = of_baseline (module Baselines.Eunomia) ?faults sys in
  Option.iter
    (fun f ->
      (* each per-DC sequencer registers as a crashable serializer: the
         ser-crash scenario shape applies to Eunomia's single point of
         order, with the backup takeover as the recovery path *)
      Array.iteri
        (fun dc site ->
          Faults.Registry.register_serializer f
            ~name:(Printf.sprintf "seq%d" dc)
            ~site
            ~crash_all:(fun () -> Baselines.Eunomia.sequencer_crash sys ~dc)
            ~crash_replica:(fun _ -> Baselines.Eunomia.sequencer_crash sys ~dc)
            ~down:(fun () -> Baselines.Eunomia.sequencer_down sys ~dc))
        spec.dc_sites)
    faults;
  api

let okapi ?registry ?series ?faults engine spec metrics =
  let meta = meta_of ?registry Baselines.Okapi.name in
  Baselines.Okapi.create ?series ?meta engine (baseline_params spec) (baseline_hooks metrics)
  |> of_baseline (module Baselines.Okapi) ?faults
