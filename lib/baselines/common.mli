(** Shared data plane for the baseline protocols.

    Eventual consistency, GentleRain, Cure, Eunomia, Okapi, Orbe and COPS
    run on {!Saturn.Fabric}, as Saturn does: its request legs, frontends,
    storage servers and bulk wires carry this module's {!item}s and the
    protocol's bulk messages. This module adds what the baselines share
    beyond it: versioned stores, per-partition monotonic timestamp
    sources, client sessions and the shipping and stabilization helpers.
    The protocols differ only in the metadata attached to versions and in
    when remote updates become visible; those parts live in the
    per-protocol modules, which plug in through a {!protocol} record.

    Sessions: a client's protocol state (dependency time, vector, context)
    lives in the fabric's session table ({!Saturn.Fabric.session}), as
    Saturn's causal past does. *)

(** {2 Shared metadata} *)

type meta = Sim.Time.t * int
(** (write timestamp, origin dc): the last-writer-wins version of every
    scalar-stamped protocol. *)

val compare_meta : meta -> meta -> int
(** Timestamp order, ties broken by origin. *)

type dt = { mutable dt : Sim.Time.t }
(** A client's dependency time: the session of GentleRain, Eunomia and
    Okapi. *)

val new_dt : unit -> dt

val learn_read_dt : dt -> key:int -> part:int -> meta -> stamp:int -> unit
val learn_write_dt : dt -> dc:int -> key:int -> Sim.Time.t -> unit
(** The {!protocol} steps of a [dt] session: a version the client reads
    or writes raises its dependency time to the version's timestamp, if
    that is later. *)

(** {2 Requests and the protocol record} *)

type kind = Attach | Read | Update

(** What the fabric's queues carry. *)
type ('s, 'm, 'b) item =
  | Op of {
      kind : kind;
      session : 's;
      home : Sim.Topology.site;
      dc : int;
      key : int;  (** Read, Update *)
      value : Kvstore.Value.t;  (** Update *)
      k : unit -> unit;  (** Attach, Update *)
      k_read : Kvstore.Value.t option -> unit;  (** Read *)
      mutable part : int;
      mutable found : (Kvstore.Value.t * 'm) option;  (** Read: what the server returned *)
      mutable stamp : int;  (** Update: the written timestamp; Read: {!protocol.stamp_read} *)
    }  (** a client request *)
  | Apply of 'b  (** a shipped update, on a storage server of its destination *)
  | Cold of (unit -> unit)
      (** stabilization work sharing a storage server's queue: off the
          per-op path *)

type ('s, 'm, 'b) protocol = {
  attach : 's -> dc:int -> ('s, 'm, 'b) item -> unit;
      (** an attach has passed its frontend: {!reply} now, or park it and
          {!reply} once the datacenter has caught up *)
  read_us : size_bytes:int -> int;  (** storage cost of a read *)
  stamp_read : dc:int -> part:int -> 'm -> int;
      (** on the server, what a read of a found version also returns *)
  learn_read : 's -> key:int -> part:int -> 'm -> stamp:int -> unit;
      (** back at the client, a read found a version *)
  write_us : 's -> size_bytes:int -> int;  (** storage cost of an update *)
  write : 's -> dc:int -> part:int -> key:int -> Kvstore.Value.t -> Sim.Time.t;
      (** on the server: install the update locally, ship it, return its
          timestamp *)
  learn_write : 's -> dc:int -> key:int -> Sim.Time.t -> unit;
      (** back at the client, an update was written with this timestamp *)
  apply : dc:int -> part:int -> 'b -> unit;  (** an {!Apply} item completed *)
  deliver : src:int -> dst:int -> 'b -> unit;  (** a bulk message arrived *)
}

type ('s, 'm, 'b) t
(** A baseline data plane whose clients hold sessions ['s], whose stores
    hold versions ['m] and whose bulk channels carry ['b]. *)

val create :
  observer:Stats.Observer.t ->
  name:string ->
  Sim.Engine.t ->
  Saturn.Fabric.params ->
  Saturn.Fabric.hooks ->
  cmp:('m -> 'm -> int) ->
  session:(unit -> 's) ->
  ('s, 'm, 'b) t
(** [cmp] orders versions for {!install}; [session] makes a client's
    session on its first request. [observer]'s registry gains [meta.bytes.<name>.*]
    ({!Stats.Meta_bytes}), which count the bytes of {!ship_update} and
    {!broadcast}. Its series, when present, gains [series.apply.dc<i>]
    counters bumped by {!install} and the fabric's bulk gauge and sampling
    tick ({!Saturn.Fabric.drive_series}), as the Saturn deployment does,
    so Saturn-vs-baseline queue dynamics line up. *)

val bind : ('s, 'm, 'b) t -> ('s, 'm, 'b) protocol -> unit
(** Installs the protocol; call it once, right after {!create}. *)

val shared : ('s, 'm, 'b) t -> ('s, ('s, 'm, 'b) item, 'b) Saturn.Fabric.t
(** The request fabric and bulk wires underneath. *)

val attach_now : ('s, 'm, 'b) t -> 's -> dc:int -> ('s, 'm, 'b) item -> unit
(** [attach] for protocols without a stabilization wait. *)

val no_stamp : dc:int -> part:int -> 'm -> int
val forget_read : 's -> key:int -> part:int -> 'm -> stamp:int -> unit
val forget_write : 's -> dc:int -> key:int -> Sim.Time.t -> unit

(** {2 The client surface} *)

val attach : ('s, 'm, 'b) t -> client:int -> home:Sim.Topology.site -> dc:int -> k:(unit -> unit) -> unit
(** Home site → datacenter, frontend, the protocol's [attach], and back. *)

val read :
  ('s, 'm, 'b) t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  key:int ->
  k:(Kvstore.Value.t option -> unit) ->
  unit

val update :
  ('s, 'm, 'b) t ->
  client:int ->
  home:Sim.Topology.site ->
  dc:int ->
  key:int ->
  value:Kvstore.Value.t ->
  k:(unit -> unit) ->
  unit

val stop : ('s, 'm, 'b) t -> unit
val stopped : ('s, 'm, 'b) t -> bool

val store_value : ('s, 'm, 'b) t -> dc:int -> key:int -> Kvstore.Value.t option
(** The version visible at [dc]. *)

(** {2 For the protocols} *)

val engine : ('s, 'm, 'b) t -> Sim.Engine.t
val n_dcs : ('s, 'm, 'b) t -> int
val params : ('s, 'm, 'b) t -> Saturn.Fabric.params
val cost : ('s, 'm, 'b) t -> Saturn.Cost_model.t
val partition_of : ('s, 'm, 'b) t -> key:int -> int
val store : ('s, 'm, 'b) t -> dc:int -> part:int -> ('m, int) Kvstore.Store.t

val reply : ('s, 'm, 'b) t -> ('s, 'm, 'b) item -> unit
(** Sends a request's response back to its client.
    @raise Invalid_argument on an [Apply] or [Cold] item. *)

val submit : ('s, 'm, 'b) t -> dc:int -> part:int -> cost_us:int -> ('s, 'm, 'b) item -> unit
(** Consumes storage-server time on partition [part] of [dc]. *)

val ship_update :
  ('s, 'm, 'b) t ->
  dc:int ->
  key:int ->
  part:int ->
  ts:Sim.Time.t ->
  spans:bool ->
  size_bytes:int ->
  meta_bytes:int ->
  'b ->
  unit
(** Ships one update to every other replica of [key], in ascending
    datacenter order, and records it as an op of [meta_bytes] attached
    bytes per destination. The protocol's [deliver] runs at each
    arrival. With [spans], each shipment opens a bulk span
    keyed by ([dc], [ts], [part]). *)

val broadcast : ('s, 'm, 'b) t -> src:int -> size_bytes:int -> heartbeat:bool -> 'b -> unit
(** Ships a message to every other datacenter, recording each as a
    heartbeat or (when [heartbeat] is false) a stabilization message. *)

val gen_ts : ('s, 'm, 'b) t -> dc:int -> part:int -> floor:Sim.Time.t -> Sim.Time.t
(** Monotonic per-gear timestamp strictly greater than [floor]. *)

val dc_floor : ('s, 'm, 'b) t -> dc:int -> Sim.Time.t
(** Heartbeat promise of [dc] (min over its gears). *)

val install :
  ('s, 'm, 'b) t ->
  dc:int ->
  part:int ->
  key:int ->
  Kvstore.Value.t ->
  'm ->
  origin_dc:int ->
  origin_time:Sim.Time.t ->
  unit
(** Makes a remote version visible at [dc] (if newer than the stored
    one): bumps [series.apply.dc<i>] and runs the [on_visible] hook. *)

val vec_advance : ('s, 'm, 'b) t -> dc:int -> src:int -> Sim.Time.t -> unit
(** Emits the probe's [Vec_advance] for [dc]'s entry of [src]. *)

val pending_gauge : ('s, 'm, 'b) t -> (int -> int) -> unit
(** Registers [series.pending.dc<i>] gauges, in the series the data plane
    was created with, over the protocol's count of parked remote updates
    at each datacenter. Registers nothing when there is no series. *)

val every : ('s, 'm, 'b) t -> Sim.Time.t -> (unit -> unit) -> unit
(** Periodic task tied to the data plane's lifetime. *)

val stab_rounds : ('s, 'm, 'b) t -> cost_us:int -> (int -> unit) -> unit
(** Stabilization rounds, every [stabilization_period] at each datacenter:
    one shared [Cold] task of [cost_us] is submitted to every partition in
    order, and [finish dc] runs when the last of them has been served — a
    loaded partition delays the round. *)

(** {2 Scalar-stamped updates}

    Eventual, GentleRain, Eunomia and Okapi ship the same update record;
    the last three park it until a stable time covers its timestamp. *)

type shipped = {
  key : int;
  value : Kvstore.Value.t;
  meta : meta;
  part : int;  (** the partition that wrote it *)
  origin_time : Sim.Time.t;
}

val write_stamped :
  ('s, meta, 'b) t ->
  dc:int ->
  part:int ->
  key:int ->
  Kvstore.Value.t ->
  floor:Sim.Time.t ->
  header_bytes:int ->
  meta_bytes:int ->
  (shipped -> 'b) ->
  Sim.Time.t
(** The storage step of an update: stamps it above [floor], installs it
    locally and {!ship_update}s it (wrapped for the bulk channel) with
    [header_bytes] on the wire beside the value, [meta_bytes] of them
    causal. Returns the timestamp. *)

val stable_queue : unit -> shipped Sim.Heap.Keyed.t
(** Parked updates in {!compare_meta} order. *)

val park : ('s, meta, 'b) t -> dc:int -> part:int -> shipped Sim.Heap.Keyed.t -> shipped -> unit
(** An applied update waits at [dc] for a stable time that covers it:
    closes its bulk span and opens its stabilization hold. *)

val flush_stable :
  ('s, meta, 'b) t -> dc:int -> shipped Sim.Heap.Keyed.t -> stable:Sim.Time.t -> unit
(** Installs, in order, every parked update whose timestamp is at most
    [stable], closing its stabilization span. *)

val release :
  ('s, 'm, 'b) t ->
  ('w * ('s, 'm, 'b) item) list ->
  ready:('w * ('s, 'm, 'b) item -> bool) ->
  ('w * ('s, 'm, 'b) item) list
(** Replies to the parked attaches that are [ready], in list order, and
    returns the rest. *)

(** {2 The per-protocol surface} *)

type ('s, 'm, 'b) fabric = ('s, 'm, 'b) t

(** What a protocol module shows the harness: the client surface, the
    bulk links and the stop switch are its data plane's. *)
module type S = sig
  type t
  type session
  type version
  type bulk

  val name : string
  val fabric : t -> (session, version, bulk) fabric
end
