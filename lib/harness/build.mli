(** The one table of systems: which exist, what each is called, and how
    each is built behind the uniform {!Api.t} over a shared deployment
    {!spec}. {!make} is the only builder every caller needs; {!saturn},
    {!cops} and {!orbe} also return the handle their callers read.

    Every system's {!Api.t} comes from one adapter. Each protocol keeps
    its clients' sessions in its fabric's table ({!Saturn.Fabric.session})
    and takes a client as its id, home site and datacenter; the adapter
    passes those from the {!Client.t} and alone moves its [current_dc]
    when an attach or migration completes. *)

type system =
  [ `Saturn | `Saturn_peer | `Eventual | `Gentlerain | `Cure | `Eunomia | `Okapi | `Orbe | `Cops ]
(** Saturn (with its serializer tree), Saturn's P-configuration (timestamp
    order only, no tree), and the seven baselines. *)

val all : system list
(** Every system, in constructor order. *)

val name : system -> string
(** The lowercase name: [Api.name] of the built system, the
    [meta.bytes.<name>.*] counters its builder registers (the
    P-configuration counts under Saturn's), the CLI's [--system] values and
    the shootout and fault-matrix rows (["saturn"], ["saturn-peer"],
    ["gentlerain"], …). *)

val label : system -> string
(** The display label the experiment tables print (["Saturn"],
    ["Saturn-P"], ["GentleRain"], …). *)

val of_name : string -> system
(** Inverse of {!name}. @raise Invalid_argument on any other string. *)

type spec = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  saturn_config : Saturn.Config.t option;
      (** serializer tree for Saturn builders; when [None], a configuration
          is computed with the generator (uniform weights) *)
  serializer_replicas : int;
  bulk_factor : float;  (** bulk-path inflation; 1.0 = shortest path *)
}

val default_spec :
  topo:Sim.Topology.t ->
  dc_sites:Sim.Topology.site array ->
  rmap:Kvstore.Replica_map.t ->
  spec

val topo3 : unit -> Sim.Topology.t
(** The three-site (west/central/east) geography the smoke and fault
    scenarios share: unequal latencies, so tree placement matters. *)

val three_site :
  ?rmap:Kvstore.Replica_map.t -> (dc_sites:Sim.Topology.site array -> Saturn.Config.t) -> spec
(** [three_site config]: the deployment the smoke run, the fault matrix,
    the shootout and the engine bench's simulation phase share — {!topo3},
    one datacenter per site, Saturn on [config] over those datacenters, and
    [rmap] (default: full replication of 24 keys, so every update
    interests both remote datacenters). *)

val chain_config : dc_sites:Sim.Topology.site array -> Saturn.Config.t
(** An explicit three-serializer chain (0–1–2, one per datacenter) with
    small artificial delays — guarantees serializer-to-serializer hops,
    which a solved three-site configuration may optimize away. *)

val backup_config : dc_sites:Sim.Topology.site array -> Saturn.Config.t
(** A pre-computed backup tree for the same three datacenters (§6.2): two
    serializers at the outer sites, datacenters 0 and 1 attached to the
    first. The reconfiguration scenarios switch to it mid-run. *)

val solve_config : spec -> Saturn.Config.t
(** Runs the configuration generator (Algorithm 3) for the spec's
    datacenters, weighting pairs by shared keys. *)

val make :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  system ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t
(** Builds [system] on the deployment. The observers are all optional:
    - [registry] and [series] become the one {!Stats.Observer.t} every
      layer of the deployment reports through. The registry collects the
      deployment's counters: Saturn's through {!Saturn.System.create}, a
      baseline's per-op metadata bytes as [meta.bytes.<name>.*] counters
      (see {!Stats.Meta_bytes}). Without it they go to a private registry.
      The series receives windowed queue-depth and throughput telemetry
      (see {!Stats.Series});
    - [faults] receives the deployment's breakable pieces, so a fault plan
      can be armed against it: Saturn's links and serializers
      ({!Faults.Registry.bind_system}), a baseline's bulk links
      ({!Faults.Registry.bind_fabric}), and for Eunomia also one crashable
      serializer per datacenter ([seq0], [seq1], …) that maps
      serializer-crash plan events onto sequencer failover.

    Saturn solves its configuration with {!solve_config} unless the spec
    carries one; COPS builds with [prune_on_write:false]; Orbe is sound under
    full replication only (see {!Baselines.Orbe}). *)

val saturn :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Saturn.System.t
(** [make `Saturn] with the deployment handle. *)

val cops :
  prune_on_write:bool ->
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Baselines.Cops.t
(** COPS with the handle, for its dependency statistics; [make `Cops] is
    [cops ~prune_on_write:false]. *)

val orbe :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Baselines.Orbe.t
(** [make `Orbe] with the handle, for its matrix statistics. *)
