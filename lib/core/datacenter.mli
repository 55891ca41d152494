(** One Saturn-enabled datacenter (§4, Figure 2).

    Composes the abstract decomposition of the paper: stateless frontends,
    storage servers with attached gears, the label sink, and the remote
    proxy. The datacenter is linearizable (single simulated process), and
    exports a serial label stream through its sink.

    The shared {!Fabric} owns the frontends, the storage servers and what
    sits behind them (each partition's store and gear, the datacenter's
    clock), the request legs and the bulk wires; {!System} wires the
    metadata tree. This module owns what Saturn does at each stop: labels
    its updates, hands them to the sink, and stages and installs remote
    payloads in the proxy's order. *)

type t

(** A client's session (§2, §4.1). Clients never talk to each other: all
    communication goes through the storage system. A client's only
    protocol state is its causal past, the greatest label it has
    observed: raised on reads (when the read version's label is greater)
    and on every write and migration (whose label is greater by
    construction). It rides every request and is what makes safe
    datacenter migration possible. The session also holds the client's
    home site, where its replies go. *)
type session = {
  home : Sim.Topology.site;
  mutable past : Label.t option;  (** [None] until the client has observed a labelled op *)
}

val session : home:Sim.Topology.site -> session
(** A fresh session with an empty causal past. *)

val observe : session -> Label.t -> unit
(** Merges a label into the causal past: replaces it iff greater. *)

(** What one client request asks for, with the caller's continuation. *)
type op =
  | Attach of (unit -> unit)
  | Read of (Kvstore.Value.t option -> unit)
  | Update of (unit -> unit)
  | Update_with_label of (Label.t -> unit)
  | Migrate of { dest_dc : int; k : unit -> unit }
      (** [k] continues after the attach at [dest_dc] that follows *)

(** A frontend's or storage server's work item. A client op is one
    [Request] record from the client to its storage server and back: it
    rides the {!Fabric}'s request legs, frontend and storage-server
    queues, and carries the op's inputs and results, so the path
    allocates no closure. *)
type item =
  | Request of {
      op : op;
      session : session;
      key : int;  (** read or update key *)
      mutable value : Kvstore.Value.t;  (** the update's value; a read's result *)
      mutable past : Label.t option;  (** the client's causal past, taken on {!arrive} *)
      mutable label : Label.t;  (** the minted label; a read's version label *)
      mutable hit : bool;  (** a read found the key *)
    }
  | Stage of Proxy.payload  (** a remote payload's staging (remote-apply cost) *)

(** What the bulk wires carry, each stamped with the sender's epoch at
    send time. *)
type bulk =
  | Payload of Proxy.payload  (** a shipped update *)
  | Heartbeat of { src : int; epoch : int; floor : Sim.Time.t }  (** [src]'s gear floor *)

type hooks = {
  epoch : unit -> int;  (** the configuration epoch stamped on shipped payloads *)
  emit_label : Label.t -> unit;  (** sink output toward the metadata service *)
}

val request : op -> session -> key:int -> value:Kvstore.Value.t -> item
(** A fresh [Request]; [key] and [value] are ignored by ops that take
    none (pass {!no_value}). *)

val no_value : Kvstore.Value.t

val create :
  Sim.Engine.t ->
  dc:int ->
  fabric:(session, Label.t, item, bulk) Fabric.t ->
  hooks:hooks ->
  observer:Stats.Observer.t ->
  proxy_mode:Proxy.mode ->
  t
(** The datacenter takes its frontends, storage servers (one per
    partition, with its store and gear), request legs and bulk wires from
    [fabric]. One [Payload] message serves every replica of an update,
    and the fabric counts the label it carries per destination. [observer]'s
    registry collects the datacenter's counters and those of its sink and
    proxy, scoped by datacenter id ([dc0.updates_originated],
    [sink.dc0.emitted], [proxy.dc0.applied_updates], …); its series, when
    present, reaches the sink and proxy for windowed queue-depth /
    apply-throughput telemetry. [proxy_mode] is the proxy's starting
    mode. *)

val proxy : t -> Proxy.t

(** {2 Client requests}: the fabric's handlers at this datacenter. On
    [arrive] a request snapshots the client's causal past. At [front] an
    attach runs Algorithm 1 ATTACH: it replies at once for a locally
    generated (or empty) causal past, and otherwise waits for the
    migration label's application or for per-source timestamp
    stabilization; the other requests move on to a storage server. At
    [serve] a read, an Algorithm 2 UPDATE (mint the label, persist, ship
    one payload to the replicas, sink the label) or MIGRATION runs, or a
    remote payload finishes staging. Every request ends with its reply on
    the fabric. [arrive] and [front] raise [Invalid_argument] on a [Stage]
    item. [deliver] takes a bulk message arriving here. *)

val arrive : item -> unit
val front : t -> item -> unit
val serve : t -> part:int -> item -> unit
val deliver : t -> bulk -> unit

val emit_epoch_label : t -> epoch:int -> Label.t
(** Mints an epoch-change label (§6.2) and hands it to the sink; returns it
    so the caller can detect when the sink emits it. *)

val stop : t -> unit

(** {2 Introspection} *)

val updates_originated : t -> int
val remote_applied : t -> int
