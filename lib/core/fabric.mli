(** The data plane Saturn and every baseline run on (§7.1): one
    eventually consistent data store, so the systems differ only in their
    metadata.

    A client request is one item of the system's own type. It rides a
    delay line from the client's home site to its datacenter (the leg
    latency is fixed per pair, so due times never decrease), takes
    frontend time (round-robin) and storage-server time on one partition,
    and rides a delay line back. Bulk messages travel on one typed channel
    per directed datacenter pair, over wires of {!bulk_latency}.

    Storage: behind each storage server sit its partition's versioned
    store and its gear (§4), routed by one key partitioning, and every
    datacenter's gears read one physical clock. A partition stores and
    stamps updates the same way for every system; what a system adds is
    its version type ['v], ordered by the [cmp] given at {!create}, and
    when it calls {!install}. The fabric also does the jobs every system
    shares: an update's fan-out to its replicas ({!ship_update}), the
    heartbeat and stabilization broadcast ({!broadcast}), and the install
    of a remote version followed by the [on_visible] hook. It counts the
    bytes of the first two in the [Stats.Meta_bytes.t] given at
    {!create}.

    The fabric decides where an item waits and for how long; the system's
    {!handlers}, given once at {!create}, decide what happens at each
    stop. Each queue's handler is one closure made there, so the path
    allocates nothing beyond the item.

    Sessions: a client's protocol state (Saturn's causal past, a
    baseline's dependency time, vector or context) lives in the fabric's
    one table, keyed by client id: {!session} makes it on the client's
    first request and returns the same value on every later one. A client
    has at most one request in flight (the harness drives closed loops),
    so a request's stages all see the same session state. *)

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

type ('s, 'v, 'i, 'b) t
(** A fabric whose clients hold sessions ['s], whose stores hold versions
    ['v], whose queues carry items ['i] and whose bulk channels carry
    ['b]. *)

val create :
  Sim.Engine.t ->
  params ->
  ('c, 'i, 'b) handlers ->
  hooks ->
  meta:Stats.Meta_bytes.t ->
  cmp:('v -> 'v -> int) ->
  session:(home:Sim.Topology.site -> 's) ->
  (('s, 'v, 'i, 'b) t -> 'c) ->
  'c
(** [create engine p handlers hooks ~meta ~cmp ~session make] builds the
    fabric, passes it to [make] to build the system around it, wires the
    [handlers] to the queues and returns the system. [hooks] hear every
    {!install}, [meta] counts the bytes {!ship_update} and {!broadcast}
    send, [cmp] is the system's version order and [session] makes a
    client's session from its home site. It schedules nothing. *)

val session : ('s, 'v, 'i, 'b) t -> client:int -> home:Sim.Topology.site -> 's
(** The session of client [client]: made by [create]'s [session] on the
    first call for that id, the same value on every later one. *)

val params : ('s, 'v, 'i, 'b) t -> params
val engine : ('s, 'v, 'i, 'b) t -> Sim.Engine.t
val n_dcs : ('s, 'v, 'i, 'b) t -> int

val send : ('s, 'v, 'i, 'b) t -> home:Sim.Topology.site -> dc:int -> 'i -> unit
(** A request from a client at [home] to datacenter [dc]. *)

val reply : ('s, 'v, 'i, 'b) t -> home:Sim.Topology.site -> dc:int -> 'i -> unit
(** The reply from [dc] to a client at [home]. *)

val submit : ('s, 'v, 'i, 'b) t -> dc:int -> part:int -> cost:Sim.Time.t -> 'i -> unit
(** Consumes [cost] of storage-server time on partition [part] of [dc]. *)

(** {2 Storage} *)

val partition : ('s, 'v, 'i, 'b) t -> key:int -> int
(** The partition that stores [key], in every datacenter. *)

val store : ('s, 'v, 'i, 'b) t -> dc:int -> part:int -> ('v, int) Kvstore.Store.t
(** Partition [part]'s store at [dc]. *)

val gears : ('s, 'v, 'i, 'b) t -> dc:int -> Gear.t array
(** [dc]'s gears, one per partition, for its label sink. *)

val stamp : ('s, 'v, 'i, 'b) t -> dc:int -> part:int -> floor:Sim.Time.t -> Sim.Time.t
(** A fresh timestamp from partition [part]'s gear at [dc]: strictly
    above [floor] and above every earlier one from that gear
    ({!Gear.generate_ts}). *)

val floor : ('s, 'v, 'i, 'b) t -> dc:int -> Sim.Time.t
(** The minimum gear floor at [dc]: no partition there will stamp below
    it, the promise a heartbeat carries. *)

val bump_clock : ('s, 'v, 'i, 'b) t -> dc:int -> Sim.Time.t -> unit
(** Steps [dc]'s physical clock by the given skew ({!Sim.Clock.bump}),
    for every gear there. Gear discipline keeps timestamps monotonic. *)

val value : ('s, 'v, 'i, 'b) t -> dc:int -> key:int -> Kvstore.Value.t option
(** The version of [key] visible at [dc]. *)

val install :
  ('s, 'v, 'i, 'b) t ->
  dc:int ->
  key:int ->
  Kvstore.Value.t ->
  'v ->
  origin_dc:int ->
  origin_time:Sim.Time.t ->
  unit
(** Makes a remote version visible at [dc]: stores it if it is newer
    under [cmp] than the stored one, then runs [on_visible] (once per
    call, installed or not). *)

(** {2 Bulk messages} *)

val ship_update :
  ('s, 'v, 'i, 'b) t ->
  dc:int ->
  key:int ->
  part:int ->
  ts:Sim.Time.t ->
  spans:bool ->
  size_bytes:int ->
  meta_bytes:int ->
  'b ->
  unit
(** Ships one update written at [dc] to every other replica of [key], in
    ascending datacenter order, and records it as an op of [meta_bytes]
    attached bytes per destination. With [spans], each shipment opens a
    bulk span keyed by ([dc], [ts], [part]); the system closes it at the
    destination. *)

val broadcast : ('s, 'v, 'i, 'b) t -> src:int -> size_bytes:int -> heartbeat:bool -> 'b -> unit
(** Ships one message to every other datacenter, in ascending order,
    recording each as a heartbeat or (when [heartbeat] is false) a
    stabilization message. *)

val bulk_link : ('s, 'v, 'i, 'b) t -> src:int -> dst:int -> Sim.Link.t
(** The directed bulk wire [src -> dst], for fault injection.
    @raise Invalid_argument when [src = dst]. *)

val every : ('s, 'v, 'i, 'b) t -> Sim.Time.t -> (unit -> unit) -> unit
(** A periodic task, first run one period from now, last before {!stop}. *)

val drive_series : ('s, 'v, 'i, 'b) t -> Stats.Series.t -> unit
(** Registers the [series.link.bulk.in_flight] gauge over every bulk wire
    and drives the series sampling tick until {!stop}. The tick only reads
    state and emits no probe events, so trace digests are unchanged. *)

val stop : ('s, 'v, 'i, 'b) t -> unit
val stopped : ('s, 'v, 'i, 'b) t -> bool
