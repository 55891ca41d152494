(** Remote proxy (§4.3): applies remote operations at a datacenter in an
    order that respects causality.

    Two sources of ordering information are combined:
    - the label serialization delivered by Saturn's tree (the fast path);
    - the label timestamp order, always available because labels ride along
      with the bulk payloads (the fallback that keeps data available during
      a Saturn outage, and the whole story of the P-configuration).

    The timestamp-order path runs {e concurrently} with the stream: a
    payload stable in timestamp order is installed even when its tree label
    is slow or was lost with a crashed serializer. The tree is virtually
    always faster, so in normal operation this sweep is invisible; under
    failures it is §6.1's availability guarantee in action. [Fallback] mode
    merely stops trusting the stream (tree outage / P-configuration).

    In stream mode the proxy exploits the paper's concurrency observation:
    when Saturn delivers labels in an order that disagrees with timestamp
    order, the involved operations are concurrent, so the proxy applies
    them in parallel instead of serially. Concretely, a stream entry is
    applicable as soon as every {e earlier} entry with a {e strictly
    smaller} timestamp has been applied and its payload has arrived.

    The proxy also implements the attach stabilization conditions of
    Algorithm 1 and both online reconfiguration protocols of §6.2. *)

type payload = {
  label : Label.t;
  value : Kvstore.Value.t;
  origin_time : Sim.Time.t;
  epoch : int;
      (** configuration epoch at the origin when the shipment left; stamped
          once by the origin datacenter when it ships the update (one
          payload serves every replica) and used by the forced-switch drain
          barrier (bulk channels are FIFO, so a post-switch tag from a
          source proves all its pre-switch shipments have arrived) *)
}

type mode = Stream  (** follow Saturn's serialization *) | Fallback  (** timestamp order *)

type t

val create :
  Sim.Engine.t ->
  dc:int ->
  n_dcs:int ->
  stage_update:(payload -> unit) ->
  install_update:(payload -> unit) ->
  observer:Stats.Observer.t ->
  ?mode:mode ->
  unit ->
  t
(** [stage_update] is invoked when a payload arrives: it should consume
    storage-server service time (the remote-apply cost) and then call
    {!staged} with the payload. [install_update] fires later, at the payload's position in the
    causal serialization, and must synchronously make the version visible
    (store install + measurement hook). Splitting the two keeps the
    stream's ordered installs off the storage servers' queues — remote
    updates are staged in parallel as they arrive and exposed in order, as
    in the paper's remote-proxy parallelism discussion (§4.3). Defaults to
    [Stream] mode. [observer]'s registry receives the proxy's counters,
    scoped [proxy.dc<k>.*]; its series, when present, gains a
    [series.pending.dc<k>] queue-depth gauge (stream entries waiting +
    payloads held) and a [series.apply.dc<k>] per-window apply-throughput
    counter. Applies and mode transitions are also traced
    through {!Sim.Probe} when a probe is installed. *)

val mode : t -> mode
val set_mode : t -> mode -> unit

val on_label : t -> Label.t -> unit
(** A label delivered by the current Saturn tree. *)

val on_payload : t -> payload -> unit
(** An update payload delivered by the bulk-data transfer service. *)

val staged : t -> payload -> unit
(** The storage server finished staging a payload that {!on_payload}
    handed to [stage_update]: it becomes installable at its position. A
    no-op when the label was applied meanwhile (a duplicate shipment, or
    a label the timestamp sweep installed from an earlier copy). *)

val on_heartbeat : t -> src:int -> ?epoch:int -> Sim.Time.t -> unit
(** Bulk-channel heartbeat: origin [src] promises to never issue smaller
    timestamps. [epoch] (default 0) is the origin's configuration epoch at
    send time, feeding the same drain barrier as payload tags. *)

val wait_for_label : t -> Label.t -> (unit -> unit) -> unit
(** Attach with a migration label: fires once that label has been applied
    here (immediately if it already was). *)

val wait_for_ts : t -> Sim.Time.t -> (unit -> unit) -> unit
(** Attach with a remote update label: fires once, from every remote
    datacenter, an update (or safe heartbeat) with timestamp ≥ the given
    one has been applied locally. *)

val on_migration_applicable : t -> (Label.t -> unit) -> unit
(** Optional hook invoked when a migration label targeting this datacenter
    becomes applicable. *)

(** {2 Online reconfiguration (§6.2)} *)

val on_label_next : t -> Label.t -> unit
(** A label delivered by the next tree (C2); buffered until the switch
    completes, then treated as {!on_label}. *)

val start_graceful_switch : t -> epoch:int -> unit
(** Fast protocol: complete once the epoch-change label of every datacenter
    has arrived through C1 and every C1 label has been applied. The local
    epoch-change label must also be injected through the sink by the
    caller. *)

val start_forced_switch : t -> epoch:int -> unit
(** Slow protocol for a broken C1: apply updates in timestamp order and
    adopt C2 once the old epoch's traffic has drained — every peer's bulk
    channel has carried a post-switch epoch tag and every old-era payload
    that arrived has been applied by the timestamp-order sweep. *)

val switch_complete : t -> bool

val on_switch_done : t -> (unit -> unit) -> unit
(** Optional hook fired the instant this proxy's migration completes — just
    after the [Switch_done] probe event, before the buffered C2 labels are
    replayed. {!System} uses it to close the dual-tree overlap window. *)

val compact : t -> unit
(** Prunes bookkeeping that can no longer matter: applied-label records
    whose timestamps are far below every source's bulk-channel promise
    (such labels can no longer arrive for the first time on any path).
    Called periodically by the datacenter; safe to call any time. *)

(** {2 Introspection} *)

val applied_updates : t -> int
val pending_stream : t -> int
val label_was_applied : t -> Label.t -> bool
val effective_watermark : t -> src:int -> Sim.Time.t
