(** The request fabric Saturn and every baseline run on (§7.1): one
    eventually consistent data plane, so the systems differ only in their
    metadata.

    A client request is one item of the system's own type. It rides a
    delay line from the client's home site to its datacenter (the leg
    latency is fixed per pair, so due times never decrease), takes
    frontend time (round-robin) and storage-server time on one partition,
    and rides a delay line back. Bulk messages travel on one typed channel
    per directed datacenter pair, over wires of {!bulk_latency}.

    The fabric decides where an item waits and for how long; the system's
    {!handlers}, given once at {!create}, decide what happens at each
    stop. Each queue's handler is one closure made there, so the path
    allocates nothing beyond the item. *)

(** The deployment's geometry. *)
type params = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;  (** geographic site of each datacenter *)
  partitions : int;  (** storage servers per datacenter *)
  frontends : int;  (** frontends per datacenter *)
  cost : Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  bulk_factor : float;
      (** bulk-data path inflation over the shortest-path latency matrix:
          bulk transfers do not necessarily take the shortest path (§5.3),
          which is when artificial delays δ earn their keep *)
}

val default_params :
  topo:Sim.Topology.t -> dc_sites:Sim.Topology.site array -> rmap:Kvstore.Replica_map.t -> params
(** Four partitions and two frontends per datacenter, the default cost
    model, shortest-path bulk wires. *)

type hooks = {
  on_visible :
    dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
      (** a remote update just became visible at [dc] *)
}

val no_hooks : hooks

val bulk_latency : bulk_factor:float -> Sim.Time.t -> Sim.Time.t
(** A bulk wire's latency over a path: scaled by [bulk_factor], truncated
    to whole microseconds. *)

(** What a system ['c] does at each stop. *)
type ('c, 'i, 'b) handlers = {
  arrive : 'c -> dc:int -> 'i -> unit;  (** a request reached [dc], before its frontend *)
  front : 'c -> dc:int -> 'i -> unit;  (** a request's frontend time ended *)
  serve : 'c -> dc:int -> part:int -> 'i -> unit;  (** an item's storage time ended *)
  finish : 'c -> dc:int -> 'i -> unit;  (** a reply from [dc] reached its client *)
  deliver : 'c -> src:int -> dst:int -> 'b -> unit;  (** a bulk message arrived *)
}

type ('i, 'b) t
(** A fabric whose queues carry items ['i], its bulk channels ['b]. *)

val create : Sim.Engine.t -> params -> ('c, 'i, 'b) handlers -> (('i, 'b) t -> 'c) -> 'c
(** [create engine p handlers make] builds the fabric, passes it to [make]
    to build the system around it, wires the [handlers] to the queues and
    returns the system. It schedules nothing. *)

val params : ('i, 'b) t -> params
val engine : ('i, 'b) t -> Sim.Engine.t
val n_dcs : ('i, 'b) t -> int

val send : ('i, 'b) t -> home:Sim.Topology.site -> dc:int -> 'i -> unit
(** A request from a client at [home] to datacenter [dc]. *)

val reply : ('i, 'b) t -> home:Sim.Topology.site -> dc:int -> 'i -> unit
(** The reply from [dc] to a client at [home]. *)

val submit : ('i, 'b) t -> dc:int -> part:int -> cost:Sim.Time.t -> 'i -> unit
(** Consumes [cost] of storage-server time on partition [part] of [dc]. *)

val ship : ('i, 'b) t -> src:int -> dst:int -> size_bytes:int -> 'b -> unit
(** Sends a bulk message [src -> dst]; the caller accounts its bytes. *)

val bulk_link : ('i, 'b) t -> src:int -> dst:int -> Sim.Link.t
(** The directed bulk wire [src -> dst], for fault injection.
    @raise Invalid_argument when [src = dst]. *)

val every : ('i, 'b) t -> Sim.Time.t -> (unit -> unit) -> unit
(** A periodic task, first run one period from now, last before {!stop}. *)

val drive_series : ('i, 'b) t -> Stats.Series.t -> unit
(** Registers the [series.link.bulk.in_flight] gauge over every bulk wire
    and drives the series sampling tick until {!stop}. The tick only reads
    state and emits no probe events, so trace digests are unchanged. *)

val stop : ('i, 'b) t -> unit
val stopped : ('i, 'b) t -> bool
