type system =
  [ `Saturn | `Saturn_peer | `Eventual | `Gentlerain | `Cure | `Eunomia | `Okapi | `Orbe | `Cops ]

(* the one table of systems: each one's name (Api.name, the
   meta.bytes.<name>.* counters, CLI flags, result rows) and display label *)
let row : system -> string * string = function
  | `Saturn -> ("saturn", "Saturn")
  | `Saturn_peer -> ("saturn-peer", "Saturn-P")
  | `Eventual -> (Baselines.Eventual.name, "Eventual")
  | `Gentlerain -> (Baselines.Gentlerain.name, "GentleRain")
  | `Cure -> (Baselines.Cure.name, "Cure")
  | `Eunomia -> (Baselines.Eunomia.name, "Eunomia")
  | `Okapi -> (Baselines.Okapi.name, "Okapi")
  | `Orbe -> (Baselines.Orbe.name, "Orbe")
  | `Cops -> (Baselines.Cops.name, "COPS")

let name s = fst (row s)
let label s = snd (row s)
let all = [ `Saturn; `Saturn_peer; `Eventual; `Gentlerain; `Cure; `Eunomia; `Okapi; `Orbe; `Cops ]

let by_name = List.map (fun s -> (name s, s)) all

let of_name n =
  match List.assoc_opt n by_name with
  | Some s -> s
  | None -> invalid_arg ("Build.of_name: unknown system " ^ n)

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

let three_site ?rmap config =
  let dc_sites = [| 0; 1; 2 |] in
  let rmap =
    match rmap with Some r -> r | None -> Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:24
  in
  { (default_spec ~topo:(topo3 ()) ~dc_sites ~rmap) with saturn_config = Some (config ~dc_sites) }

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

(* the deployment's geometry, as every system's fabric takes it *)
let geo spec =
  let { topo; dc_sites; partitions; frontends; cost; rmap; bulk_factor; _ } = spec in
  { Saturn.Fabric.topo; dc_sites = Array.copy dc_sites; partitions; frontends; cost; rmap; bulk_factor }

let solve_config spec =
  let bulk i j =
    Saturn.Fabric.bulk_latency ~bulk_factor:spec.bulk_factor
      (Sim.Topology.latency spec.topo spec.dc_sites.(i) spec.dc_sites.(j))
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
    Saturn.Fabric.on_visible =
      (fun ~dc ~key ~origin_dc ~origin_time ~value ->
        Metrics.on_visible metrics ~dc ~key ~origin_dc ~origin_time ~value);
  }

(* the one observer value every layer of a deployment reports through;
   without a registry, the counters go to a private one nobody reads *)
let observer registry series =
  let registry = match registry with Some r -> r | None -> Stats.Registry.create () in
  { Stats.Observer.registry; series }

(* a builder taking the observer value, behind Build's public arguments *)
let with_observer build ?registry ?series ?faults engine spec metrics =
  build (observer registry series) faults engine spec metrics

(* The one Api.t over every system. Each protocol's client surface takes
   the client's id, home site and datacenter, and keeps the client's
   session in its fabric's table; this adapter alone moves the harness
   client's [current_dc]. *)
let client_api ~name ~attach ~read ~update ~migrate ~stop ~store_value =
  {
    Api.name;
    attach =
      (fun c ~dc ~k ->
        attach ~client:c.Client.id ~home:c.Client.home_site ~dc ~k:(fun () ->
            c.Client.current_dc <- dc;
            k ()));
    read =
      (fun c ~key ~k ->
        read ~client:c.Client.id ~home:c.Client.home_site ~dc:c.Client.current_dc ~key ~k);
    update =
      (fun c ~key ~value ~k ->
        update ~client:c.Client.id ~home:c.Client.home_site ~dc:c.Client.current_dc ~key ~value ~k);
    migrate =
      (fun c ~dest_dc ~k ->
        migrate ~client:c.Client.id ~home:c.Client.home_site ~dc:c.Client.current_dc
          ~preferred_dc:c.Client.preferred_dc ~dest_dc ~k:(fun () ->
            c.Client.current_dc <- dest_dc;
            k ()));
    stop;
    store_value;
  }

let saturn_with ~peer observer faults engine spec metrics =
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
      Saturn.System.geo = geo spec;
      config;
      serializer_replicas = spec.serializer_replicas;
      peer_mode = peer;
    }
  in
  let system = Saturn.System.create ~observer engine params (hooks_of_metrics metrics) in
  Option.iter (fun f -> Faults.Registry.bind_system f system) faults;
  let api =
    client_api
      ~name:(name (if peer then `Saturn_peer else `Saturn))
      ~attach:(Saturn.System.attach system) ~read:(Saturn.System.read system)
      ~update:(Saturn.System.update system) ~migrate:(Saturn.System.migrate system)
      ~stop:(fun () -> Saturn.System.stop system)
      ~store_value:(Saturn.Fabric.value (Saturn.System.fabric system))
  in
  (api, system)

let saturn = with_observer (saturn_with ~peer:false)

(* a baseline's client surface is its data plane's; it has no migration
   fast path, so a migration is an attach at the destination *)
let of_baseline (type a) (module B : Baselines.Common.S with type t = a) faults (sys : a) =
  let geo = B.fabric sys in
  Option.iter (fun f -> Faults.Registry.bind_fabric f (Baselines.Common.shared geo)) faults;
  client_api ~name:B.name ~attach:(Baselines.Common.attach geo) ~read:(Baselines.Common.read geo)
    ~update:(Baselines.Common.update geo)
    ~migrate:(fun ~client ~home ~dc:_ ~preferred_dc:_ ~dest_dc ~k ->
      Baselines.Common.attach geo ~client ~home ~dc:dest_dc ~k)
    ~stop:(fun () -> Baselines.Common.stop geo)
    ~store_value:(Saturn.Fabric.value (Baselines.Common.shared geo))

(* A baseline's Api.t and handle: [create] over the deployment's geometry *)
let baseline (type a) (module B : Baselines.Common.S with type t = a) create observer faults engine
    spec metrics =
  let sys : a = create ~observer engine (geo spec) (hooks_of_metrics metrics) in
  (of_baseline (module B) faults sys, sys)

let cops ~prune_on_write =
  with_observer (baseline (module Baselines.Cops) (Baselines.Cops.create ~prune_on_write))

let orbe = with_observer (baseline (module Baselines.Orbe) Baselines.Orbe.create)

(* each per-DC sequencer registers as a crashable serializer: the ser-crash
   scenario shape applies to Eunomia's single point of order, with the
   backup takeover as the recovery path *)
let bind_sequencers faults spec sys =
  Array.iteri
    (fun dc site ->
      Faults.Registry.register_serializer faults
        ~name:(Printf.sprintf "seq%d" dc)
        ~site
        ~crash_all:(fun () -> Baselines.Eunomia.sequencer_crash sys ~dc)
        ~crash_replica:(fun _ -> Baselines.Eunomia.sequencer_crash sys ~dc)
        ~down:(fun () -> Baselines.Eunomia.sequencer_down sys ~dc))
    spec.dc_sites

let make ?registry ?series ?faults system engine spec metrics =
  let observer = observer registry series in
  let api m create = fst (baseline m create observer faults engine spec metrics) in
  match system with
  | `Saturn -> fst (saturn_with ~peer:false observer faults engine spec metrics)
  | `Saturn_peer -> fst (saturn_with ~peer:true observer faults engine spec metrics)
  | `Eventual -> api (module Baselines.Eventual) Baselines.Eventual.create
  | `Gentlerain -> api (module Baselines.Gentlerain) Baselines.Gentlerain.create
  | `Cure -> api (module Baselines.Cure) Baselines.Cure.create
  | `Eunomia ->
    let api, sys =
      baseline (module Baselines.Eunomia) Baselines.Eunomia.create observer faults engine spec
        metrics
    in
    Option.iter (fun f -> bind_sequencers f spec sys) faults;
    api
  | `Okapi -> api (module Baselines.Okapi) Baselines.Okapi.create
  | `Orbe -> api (module Baselines.Orbe) Baselines.Orbe.create
  | `Cops -> api (module Baselines.Cops) (Baselines.Cops.create ~prune_on_write:false)
