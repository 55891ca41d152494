(** The full Saturn deployment: datacenters + bulk-data transfer + the
    metadata service, wired over a geographic topology.

    This is the module a user of the library instantiates: give it a
    topology, a replica map and a Saturn configuration, and drive it with
    clients. Baseline systems (eventual, GentleRain, Cure) live in the
    [baselines] library and expose the same operation surface through the
    harness. *)

type params = {
  geo : Fabric.params;  (** the deployment's geometry, shared with the baselines *)
  config : Config.t;
  serializer_replicas : int;
  peer_mode : bool;
      (** true = P-configuration: no serializer tree; remote updates applied
          in conservative timestamp order from the bulk channel only *)
  clock_offsets : Sim.Time.t array option;
      (** per-datacenter physical-clock skew (NTP residue); [None] = all
          synchronized. Gears discipline timestamps regardless. *)
}

val default_params :
  topo:Sim.Topology.t ->
  dc_sites:Sim.Topology.site array ->
  rmap:Kvstore.Replica_map.t ->
  config:Config.t ->
  params

type t

val create : observer:Stats.Observer.t -> Sim.Engine.t -> params -> Fabric.hooks -> t
(** [observer] is handed down to every layer. Its registry collects every
    counter of the deployment: per-datacenter ones scoped by id, the
    serializer tree's under ["service"], and Saturn's metadata bytes
    under [meta.bytes.saturn.*]. Its series, when present, receives
    windowed queue-depth and throughput telemetry from every layer (sink
    hold queues, proxy pending sets, serializer ingress/backlog, metadata
    and bulk link in-flight counts), and the system drives its sampling
    tick until {!stop}. The tick only reads state and emits no probe
    events, so trace digests are unchanged. The epoch-2 tree of
    {!switch_config} registers counters but no series.
    [Stats.Observer.create ()] suits a deployment nobody observes. *)

val n_dcs : t -> int
val datacenter : t -> int -> Datacenter.t
val service : t -> Service.t option
(** [None] in peer mode. *)

val next_service : t -> Service.t option
(** The epoch-2 tree installed by {!switch_config}; [None] before a switch.
    Fault registries bind its serializers and links so faults compose with
    the migration window. *)

val fabric : t -> (Datacenter.session, Datacenter.item, Datacenter.bulk) Fabric.t
(** The request fabric and bulk wires the deployment runs on. *)

val params : t -> params

(** {2 Client operations} (continuation-passing). A client is its id,
    its home site and the datacenter it is attached to, [dc], which the
    caller tracks. Its causal past ({!Datacenter.session}) lives in the
    fabric's session table ({!Fabric.session}), made on its first
    request. Each op travels as one {!Datacenter.Request} record over the
    {!Fabric}'s request path from [home], so it allocates no closure of
    its own. *)

val attach : t -> client:int -> home:Sim.Topology.site -> dc:int -> k:(unit -> unit) -> unit
(** Algorithm 1 ATTACH at [dc]: [k] runs once [dc] has caught up with the
    client's causal past. *)

val read :
  t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  key:int ->
  k:(Kvstore.Value.t option -> unit) ->
  unit

val update :
  t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  key:int ->
  value:Kvstore.Value.t ->
  k:(unit -> unit) ->
  unit

val update_with_label :
  t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  key:int ->
  value:Kvstore.Value.t ->
  k:(Label.t -> unit) ->
  unit
(** Like {!update} but hands the minted label to the continuation, as the
    paper's frontend does (Algorithm 1 returns the label to the client
    library). Useful for tools and session-guarantee checks. *)

val migrate :
  t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  preferred_dc:int ->
  dest_dc:int ->
  k:(unit -> unit) ->
  unit
(** Moves a client attached at [dc] to [dest_dc]; [k] runs once it is
    attached there. At its [preferred_dc] (and outside peer mode) the
    client first has [dc] issue a migration label (§4.4); elsewhere it
    attaches at [dest_dc] directly, since the label's round trip would
    cross the WAN. *)

(** {2 Online reconfiguration (§6.2)} *)

val switch_config : t -> Config.t -> graceful:bool -> unit
(** Installs a new tree. [graceful = true] runs the epoch-change protocol
    through the old tree; [graceful = false] runs the fallback protocol for
    a broken old tree (timestamp order during the transition). One switch
    per system lifetime is supported — the paper's reconfigurations are
    rare, operator-triggered events; chain further switches by rebuilding.

    Observability: emits a [Switch_begin] probe event (each proxy emits
    [Switch_done] as it finishes), bumps [reconfig.switches], counts labels
    routed into either tree during the migration window under
    [reconfig.labels_old_tree] / [reconfig.labels_new_tree], accumulates the
    window's length in [reconfig.dual_window_us], and (with a series) holds
    the [series.reconfig.dual_tree] gauge at 1 for the window's duration. *)

val switch_complete : t -> bool

(** {2 Failure injection} *)

val crash_serializer : t -> int -> unit
val enter_fallback : t -> unit
(** Puts every proxy in timestamp-fallback mode (Saturn outage response). *)

val stop : t -> unit

(** {2 Statistics} *)

val total_updates : t -> int
val total_remote_applied : t -> int
