(** Pre-packaged comparative experiment runs used by the benchmark harness
    and the larger tests. One [setup] describes a deployment + workload;
    {!run} executes it for one system and returns the measurements. *)

val all_systems : Build.system list
(** Eventual, Saturn, GentleRain, Eunomia, Okapi, Cure — the Figures 5, 7, 8
    lineup extended with the two follow-up protocols. *)

val systems : Build.system list
(** The systems the CLI offers for these runs, in its flag order:
    {!all_systems} plus Saturn's P-configuration. Orbe and COPS run in the
    stabilization shootout instead, whose full replication Orbe needs. *)

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
  saturn_config : Saturn.Config.t option;  (** [None] = run the generator *)
  serializer_replicas : int;  (** chain-replication factor per serializer *)
  bulk_factor : float;  (** bulk-path inflation; 1.0 = shortest path *)
}

val default_setup : setup
(** 7 datacenters (all EC2 regions), the paper's default workload knobs
    (2 B values, 90:10, exponential correlation, 0% remote reads), and a
    short-but-stable simulated window. *)

type outcome = {
  system : Build.system;
  throughput : float;
  ops : int;
  mean_visibility_ms : float;
  extra_visibility_ms : float;
  p90_visibility_ms : float;
  metrics : Metrics.t;
}

val dc_sites : setup -> Sim.Topology.site array
val replica_map : setup -> Kvstore.Replica_map.t
(** Deterministic in the setup's seed. *)

val run : Build.system -> setup -> outcome

val run_with : ?rmap:Kvstore.Replica_map.t -> Build.system -> setup -> outcome
(** Like {!run} with an explicit replica map (overrides the correlation
    pattern). *)

val run_all : setup -> outcome list
(** {!all_systems} under identical workloads. *)

val solved_config : setup -> Saturn.Config.t
(** The Algorithm-3 configuration for this setup (memoized per setup shape). *)

(** {2 Facebook-based benchmark (§7.4)} *)

type social_setup = {
  n_users : int;
  value_size : int;
  min_replicas : int;
  max_replicas : int;
  social_clients_per_dc : int;  (** users sampled as active clients *)
  s_warmup : Sim.Time.t;
  s_measure : Sim.Time.t;
  s_cooldown : Sim.Time.t;
  s_seed : int;
}

val default_social_setup : social_setup

val active_users :
  social_setup -> Workload.Scale.t -> Workload.Social_partition.t -> int list array
(** Per datacenter, the ascending ids of its active clients:
    [social_clients_per_dc] of the users it masters (all of them when it
    masters fewer), drawn uniformly with a generator seeded [s_seed + 3]. *)

val run_social : Build.system -> social_setup -> outcome
(** Synthetic Facebook graph + Benevenuto op mix + replication-constrained
    partitioning over the seven EC2 regions. *)

val plan_report : ?seed:int -> Sim.Topology.site array -> string
(** Algorithm 3 (default search seed 11) over the given EC2 regions with
    uniform pair weights, rendered: the configuration, its weighted
    mismatch, and the per-pair metadata-vs-bulk latency table — what
    [saturn-cli plan] prints, and over all seven regions the gate's pinned
    [plan-default.txt]. Needs at least two regions. *)
