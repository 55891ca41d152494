(** One Saturn-enabled datacenter (§4, Figure 2).

    Composes the abstract decomposition of the paper: stateless frontends,
    storage servers with attached gears, the label sink, and the remote
    proxy. The datacenter is linearizable (single simulated process), and
    exports a serial label stream through its sink.

    Networking (client latency, bulk links, the metadata tree) is wired by
    {!System}; this module owns only intra-datacenter behaviour. *)

type t

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
    rides {!System}'s request legs, then this datacenter's frontend and
    storage-server queues, and carries the op's inputs and results, so
    the path allocates no closure. *)
type item =
  | Request of {
      op : op;
      client : Client_lib.t;
      key : int;  (** read or update key *)
      mutable value : Kvstore.Value.t;  (** the update's value; a read's result *)
      mutable past : Label.t option;  (** the client's causal past, taken on {!arrive} *)
      mutable label : Label.t;  (** the minted label; a read's version label *)
      mutable hit : bool;  (** a read found the key *)
    }
  | Stage of Proxy.payload  (** a remote payload's staging (remote-apply cost) *)

type hooks = {
  ship_payload : dst:int -> Proxy.payload -> unit;
      (** bulk-data transfer of an update to a replica datacenter; one
          payload is shared by every destination of an update *)
  epoch : unit -> int;  (** the configuration epoch stamped on shipped payloads *)
  emit_label : Label.t -> unit;  (** sink output toward the metadata service *)
  on_remote_visible : key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
      (** a remote update just became visible locally *)
  reply : item -> unit;  (** a served [Request] leaves for its client *)
}

val request : op -> Client_lib.t -> key:int -> value:Kvstore.Value.t -> item
(** A fresh [Request]; [key] and [value] are ignored by ops that take
    none (pass {!no_value}). *)

val no_value : Kvstore.Value.t

val create :
  Sim.Engine.t ->
  dc:int ->
  n_dcs:int ->
  partitions:int ->
  frontends:int ->
  cost:Cost_model.t ->
  rmap:Kvstore.Replica_map.t ->
  hooks:hooks ->
  ?clock_offset:Sim.Time.t ->
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?proxy_mode:Proxy.mode ->
  unit ->
  t
(** [registry] collects the datacenter's counters and those of its sink and
    proxy, scoped by datacenter id ([dc0.updates_originated],
    [sink.dc0.emitted], [proxy.dc0.applied_updates], …); a private registry
    is created when omitted. [series] is forwarded to the sink and proxy
    for windowed queue-depth / apply-throughput telemetry. *)

val proxy : t -> Proxy.t
val store_of_key : t -> key:int -> (Label.t, int) Kvstore.Store.t
val gear_floor : t -> Sim.Time.t
(** min over gears — the datacenter's bulk-heartbeat promise. *)

(** {2 Client requests} *)

val arrive : t -> item -> unit
(** A [Request] reaches the datacenter: it snapshots the client's causal
    past, then takes frontend service time (round-robin). At the frontend
    an attach runs Algorithm 1 ATTACH: it replies at once for a locally
    generated (or empty) causal past, and otherwise waits for the
    migration label's application or for per-source timestamp
    stabilization. Reads, updates (Algorithm 2 UPDATE: mint the label,
    persist, ship one payload to the replicas, sink the label) and
    migrations (Algorithm 2 MIGRATION) then take storage-server service
    time. Every request ends with [hooks.reply].
    @raise Invalid_argument on a [Stage] item. *)

val emit_epoch_label : t -> epoch:int -> Label.t
(** Mints an epoch-change label (§6.2) and hands it to the sink; returns it
    so the caller can detect when the sink emits it. *)

val bump_clock : t -> Sim.Time.t -> unit
(** Fault injection: step-change the datacenter's physical-clock skew
    (shared by all its gears). Gear discipline keeps label timestamps
    monotonic through the bump. *)

val stop : t -> unit

(** {2 Introspection} *)

val updates_originated : t -> int
val remote_applied : t -> int
