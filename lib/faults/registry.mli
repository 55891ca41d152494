(** Fault registry: the naming layer between fault plans and a live
    deployment.

    A built system registers its breakable pieces — links, serializers,
    datacenter clocks — under stable, human-readable names ([bulk.dc0->dc2],
    [tree.s0->s1.data], [ser1], [clock.dc0]). Plans then refer to topology
    by name only, which is what makes a fault schedule declarative,
    printable and reusable across deployments of the same shape.

    Every endpoint is tagged with its geographic site, so a full network
    partition is expressible as a site bipartition: {!links_crossing}
    returns every registered link with exactly one endpoint inside the
    given side, and the injector cuts them all.

    {!bind_system} (and {!bind_fabric} for a baseline's data plane) walk
    a built deployment and perform the registrations; they are
    invoked by [Harness.Build] when a fault registry is given to the
    build. *)

type t

val create : unit -> t

(** {2 Registration} *)

val register_link :
  t -> name:string -> site_a:Sim.Topology.site -> site_b:Sim.Topology.site -> Sim.Link.t -> unit
(** Records the link's current latency as its base latency (for
    {!base_latency} and latency-spike resets).
    @raise Invalid_argument on a duplicate name. *)

val register_serializer :
  t ->
  name:string ->
  site:Sim.Topology.site ->
  crash_all:(unit -> unit) ->
  crash_replica:(int -> unit) ->
  down:(unit -> bool) ->
  unit
(** @raise Invalid_argument on a duplicate name. *)

(** {2 Lookup} — all raise [Invalid_argument] naming the missing entry, so
    a plan referring to topology that was never registered fails loudly. *)

val link : t -> string -> Sim.Link.t
val base_latency : t -> string -> Sim.Time.t
val crash_serializer : t -> string -> unit
val crash_replica : t -> string -> replica:int -> unit
val serializer_down : t -> string -> bool
val bump_clock : t -> string -> Sim.Time.t -> unit

val link_names : t -> string list
(** Name-sorted, hence deterministic. *)

val serializer_names : t -> string list
val clock_names : t -> string list

val links_crossing : t -> side:Sim.Topology.site list -> (string * Sim.Link.t) list
(** Every registered link with exactly one endpoint site in [side] —
    the cut set of the bipartition (side, rest). Name-sorted. *)

(** {2 Binding a built deployment} *)

val bind_system : t -> Saturn.System.t -> unit
(** Registers a Saturn deployment: [bulk.dc<i>->dc<j>] for every directed
    bulk link, [clock.dc<i>] per datacenter, and — unless the system runs
    in peer mode — [ser<s>] per serializer, [tree.s<a>->s<b>.data]/[.ack]
    per directed tree edge, and [attach.dc<i>.{in,out}.{data,ack}] for the
    datacenter↔serializer channels. Also arms {!switch_config}: driving a
    reconfiguration registers the epoch-2 tree's serializers and links
    under the same names with an [e2.] prefix, so later plan events can cut
    or crash the new tree during the migration window. *)

val can_switch : t -> bool
(** Whether a reconfigurable (Saturn, non-peer) system is bound. *)

val switch_config : t -> graceful:bool -> Saturn.Config.t -> unit
(** Drives {!Saturn.System.switch_config} on the bound system, then
    registers the epoch-2 pieces under the [e2.] prefix.
    @raise Invalid_argument when no reconfigurable system is bound. *)

val bind_fabric : t -> ('s, 'v, 'i, 'b) Saturn.Fabric.t -> unit
(** Registers a request fabric's [bulk.dc<i>->dc<j>] wires: all a baseline
    has to break, and the bulk half of {!bind_system}. *)
