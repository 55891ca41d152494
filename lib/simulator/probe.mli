(** Structured simulation tracing.

    A probe records typed events — event-loop steps, link traffic, label
    forwarding, serializer hops, proxy applies, chain acks, stabilization
    rounds — keyed by simulated time. Because the simulator is
    deterministic, the stream of events (and hence its digest) is a pure
    function of the scenario and its seed: two same-seed runs must produce
    byte-identical traces, which CI asserts as a regression oracle.

    Besides point events, the probe understands {e spans}: matched
    {!Span_begin}/{!Span_end} pairs that attribute simulated time to a
    subsystem. Pairing happens inside the probe as events arrive, so
    per-kind span totals ({!span_totals_us}) are available even on
    count-only ([~keep:false]) probes. The {!Span} module provides the
    ergonomic emit helpers instrumentation sites use.

    The facility is zero-cost when disabled: instrumentation points guard
    with {!active} (one ref read and a branch) and allocate nothing unless
    a sink is installed. Exactly one process-wide sink can be installed at
    a time, in the style of a [Logs] reporter.

    Recording renders each event once, as its JSONL line, into a buffer
    the probe reuses, and hashes those bytes without allocating; the same
    renderer backs every export. That per-event cost is what the
    benchmark's [obs.tax_ratio] measures. *)

type mode = Stream | Fallback

(** Subsystems a span can attribute time to, following a label's life
    (paper §4): held in the origin sink for gear stability; attached into
    the tree; replicated by a serializer's chain; parked for the
    artificial delay δ before a hop or an egress; in flight between
    serializers; in flight toward the destination proxy; and waiting in
    the proxy's ordering buffer. [Sk_bulk] covers the payload's trip on
    the bulk data plane, [Sk_stab] the baselines' stabilization holds. *)
type span_kind =
  | Sk_sink_hold
  | Sk_attach
  | Sk_chain
  | Sk_delay_hop
  | Sk_hop
  | Sk_delay_egress
  | Sk_egress
  | Sk_proxy_order
  | Sk_bulk
  | Sk_stab

val span_kind_name : span_kind -> string
(** ["sink_hold"], ["attach"], … — the keys of {!span_totals_us}. *)

(** A span's correlation key. Begin and end must agree on {e every} field
    — the probe pairs them structurally. Two keying conventions are used:
    tree-side spans ([Sk_attach]..[Sk_delay_egress]) carry the service uid
    [(origin dc, seq = oseq)] with [aux] = the service instance, while
    label-identity spans ([Sk_sink_hold], [Sk_egress], [Sk_proxy_order],
    [Sk_bulk], [Sk_stab]) carry [(origin dc, seq = label ts in µs)] with
    [aux] = the source gear (timestamps are only unique per gear).
    [site]/[peer] locate the span (serializer or datacenter ids; -1 when
    unused). [epoch] is the configuration epoch the span's work belongs to
    (0 for spans whose begin/end sites cannot both know it).
    [Harness.Journey] joins the two keyings via {!Label_forward}. *)
type span = {
  sk : span_kind;
  origin : int;
  seq : int;
  aux : int;
  site : int;
  peer : int;
  epoch : int;
}

type event =
  | Engine_step of { seq : int }  (** the event loop dispatched one event *)
  | Link_send of { size_bytes : int }  (** message entered a FIFO link *)
  | Link_deliver  (** message came out the far end *)
  | Link_drop of { in_flight : bool }
      (** message lost: [in_flight] = true means it was mid-flight when the
          link was cut, false means it was sent while the link was down —
          the distinction fault counters and the invariant checker need to
          tell loss-by-cut from loss-by-outage *)
  | Fifo_resend of { sender : int; seq : int }
      (** a reliable-FIFO sender retransmitted an unacknowledged message *)
  | Label_forward of { dc : int; gear : int; ts : int; oseq : int; inst : int; epoch : int }
      (** label [(dc, gear, ts)] entered the metadata service at [dc]. When
          it had remote targets it was assigned uid [(dc, oseq)] by service
          instance [inst]; [oseq] = -1 means local-only, never forwarded.
          [epoch] is the configuration epoch of the tree it entered. This
          event is the lid→uid join point for journey reconstruction. *)
  | Serializer_hop of { from_ser : int; to_ser : int }  (** serializer-to-serializer forward *)
  | Serializer_deliver of { dc : int }  (** service egress toward [dc]'s proxy *)
  | Delay_wait of { serializer : int; us : int }  (** artificial delay δ applied on a hop *)
  | Chain_ack of { seq : int }  (** chain commit acknowledged back to the sender *)
  | Ser_commit of { ser : int; origin : int; oseq : int; epoch : int }
      (** serializer [ser]'s chain committed the [oseq]-th label that origin
          datacenter [origin] pushed into the service — the exactly-once,
          FIFO-per-origin oracle the fault checker asserts over. [epoch] is
          the tree's configuration epoch; serializer ids and oseq counters
          both restart per epoch, so cross-epoch analysis keys on it *)
  | Head_change of { ser : int }  (** chain head crashed and the chain healed *)
  | Sink_emit of { dc : int; ts : int }  (** label sink emitted a stable label *)
  | Proxy_apply of { dc : int; src_dc : int; gear : int; ts : int; fallback : bool }
      (** remote update installed; [fallback] tells which path ordered it *)
  | Proxy_mode of { dc : int; mode : mode }  (** proxy switched ordering modes *)
  | Stab_round of { dc : int; gst : int }  (** baseline stabilization round completed *)
  | Vec_advance of { dc : int; src : int; ts : int }  (** baseline version-vector advance *)
  | Switch_begin of { epoch : int; graceful : bool }
      (** online reconfiguration (paper §6.2) started: the system begins
          migrating from epoch-1 trees to the [epoch] configuration *)
  | Switch_done of { dc : int; epoch : int }
      (** datacenter [dc]'s proxy finished its migration into [epoch] —
          the old tree carries no more of its traffic *)
  | Span_begin of span  (** simulated time starts accruing to [span.sk] *)
  | Span_end of span  (** …and stops; must match an open begin field-for-field *)

type t

val create : ?keep:bool -> unit -> t
(** [keep] (default true) keeps every event for {!iter} and
    {!write_jsonl}. With [~keep:false] only the running digest, per-kind
    counts and span totals are maintained, and no kept-event storage is
    allocated, so unbounded runs stay O(1) space. *)

(** {2 The process-wide sink} *)

val install : t -> unit
val uninstall : unit -> unit

val active : unit -> bool
(** Cheap guard for instrumentation points: check before building an
    event so disabled probes cost one branch and no allocation. *)

val emit : at:Time.t -> event -> unit
(** Records into the installed sink, if any. *)

val with_probe : t -> (unit -> 'a) -> 'a
(** Installs [t] for the duration of the callback, restoring the previous
    sink afterwards (exception-safe). *)

(** {2 Reading a probe} *)

val count : t -> int

val iter : t -> (Time.t -> event -> unit) -> unit
(** [iter t f] calls [f at ev] on every kept event, in emission order,
    building no list.
    @raise Invalid_argument if the probe was created with [~keep:false]. *)

val counts_by_kind : t -> (string * int) list
(** Event counts grouped by {!kind}, name-sorted. Available regardless of
    [keep]. Span begins and ends share one ["span.<kind>"] bucket. *)

val span_totals_us : t -> (string * int) list
(** Total simulated µs accrued by {e matched} spans, per
    {!span_kind_name}, name-sorted. Available regardless of [keep]. *)

val span_counts : t -> (string * int) list
(** Matched span pairs per kind, name-sorted. *)

val span_orphans : t -> int
(** [Span_end] events that matched no open begin (they contribute nothing
    to the totals). *)

val open_span_count : t -> int
(** Spans begun but not yet ended — in-flight work at the end of a run. *)

val digest : t -> string
(** 64-bit FNV-1a over the JSONL rendering of the event stream, as a
    16-character hex string: the bytes {!write_jsonl} writes, hashed as
    each event is recorded. Stable across processes, and independent of
    [keep] — the CI determinism gate compares these. *)

(** {2 Export} *)

val to_json : Time.t -> event -> string
(** One JSON object, e.g. [{"t":1200,"ev":"serializer_hop","from":0,"to":1}]. *)

(** {2 Interned kind ids}

    The set of event kinds is closed, so per-event accounting uses a dense
    integer id instead of the kind string: {!record} bumps [counts.(kind_id
    ev)] — no hashing, no allocation on the per-event path. *)

val write_jsonl : t -> out_channel -> unit
(** One {!to_json} line per recorded event, in emission order.
    @raise Invalid_argument if the probe was created with [~keep:false].
    For count-only probes use {!stream_jsonl} instead. *)

val stream_jsonl : t -> out_channel -> unit
(** Attaches a streaming JSONL sink: every event recorded {e from now on}
    is written to [oc] as it happens, regardless of [keep] — O(1) memory
    export for unbounded runs. The caller owns (flushes, closes) the
    channel after the run. *)
