(** Structured simulation tracing.

    A probe records typed events — event-loop steps, link traffic, label
    forwarding, serializer hops, proxy applies, chain acks, stabilization
    rounds — keyed by simulated time. Because the simulator is
    deterministic, the stream of events (and hence its digest) is a pure
    function of the scenario and its seed: two same-seed runs must produce
    byte-identical traces, which CI asserts as a regression oracle.

    Besides point events, the probe understands {e spans}: matched
    [Span_begin]/[Span_end] pairs that attribute simulated time to a
    subsystem. Pairing happens inside the probe as events arrive, so
    per-kind span totals ({!span_totals_us}) are available even on
    count-only ([~keep:false]) probes. The {!Span} module provides the
    ergonomic emit helpers instrumentation sites use.

    The facility is zero-cost when disabled: instrumentation points guard
    with {!active} (one ref read and a branch) and call nothing unless a
    sink is installed. Exactly one process-wide sink can be installed at
    a time, in the style of a [Logs] reporter.

    {b Emission allocates nothing.} Sites call one typed emitter per
    kind ({!engine_step}, {!proxy_apply}, …, and {!Span.begin_} /
    {!Span.end_}) with the event's fields as unboxed ints. The emitter
    writes the kind, its flag and up to six ints into the probe's one
    {!view}, a flyweight reused by every event, and one record step does
    all the per-event work from it: the digest, the counts, span pairing,
    the packed kept trace and the subscribers. The view is the probe's one
    event representation: recording, the kept trace, export and every
    analyzer read it, and no event value is built. On the seed-42 fault
    matrix (52.8 events per op) boxed events cost about 209 words per op;
    with them gone, and the fault checker's key tuples too, the
    benchmark's fault-matrix words per op fell from 555 to 333.

    Recording digests each event without rendering it. One descriptor per
    line shape — the head literal, the literal before each further field,
    the flag's two literals — defines the JSONL line as literals and int
    fields; the walk folds FNV-1a straight from the view, and writes
    bytes only when a writer is given. A literal folds in one multiply
    and one lookup in a 128-entry table, filled on the first {!create};
    digits fold one byte at a time. The walk writes only while a
    {!stream_jsonl} channel is attached, and the same walk backs
    {!write_jsonl}, so the digested bytes and every export are the same
    bytes. Span pairing keeps its open spans in a flat
    open-addressing table. That per-event cost is what the benchmark's
    [obs.tax_ratio] measures.

    A kept probe stores its trace packed, not as OCaml values: each event
    is appended to fixed 64 KiB [Bytes] chunks as a tag byte, a
    zigzag-LEB128 time delta and one zigzag varint per field — about 7
    bytes per event on the fault matrix. The GC never scans or promotes
    those chunks. {!iter_views} decodes them back into a view; analyzers
    that only need one pass should {!subscribe} instead and see each
    event as it is recorded. *)

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
    [Harness.Journey] joins the two keyings via the [Label_forward]
    event. *)
type span = {
  sk : span_kind;
  origin : int;
  seq : int;
  aux : int;
  site : int;
  peer : int;
  epoch : int;
}

(** The kind of an event: what a {!view} carries and what analyzers
    match on. Each is named after its typed emitter, whose labelled
    arguments are the event's fields. *)
module Kind : sig
  type t =
    | Engine_step  (** the event loop dispatched one event *)
    | Link_send  (** a message entered a FIFO link *)
    | Link_deliver  (** a message came out the far end *)
    | Link_drop
        (** a message was lost: [in_flight] is true when it was mid-flight
            as the link was cut, false when it was sent while the link was
            down — how fault counters and the checker tell the two apart *)
    | Fifo_resend  (** a reliable-FIFO sender retransmitted an unacknowledged message *)
    | Label_forward
        (** label [(dc, gear, ts)] entered the metadata service at [dc]. With
            remote targets it got uid [(dc, oseq)] from service instance
            [inst] of the tree of configuration [epoch]; [oseq] = -1 means
            local-only. The lid→uid join point of journey reconstruction *)
    | Serializer_hop  (** serializer-to-serializer forward *)
    | Serializer_deliver  (** service egress toward [dc]'s proxy *)
    | Delay_wait  (** artificial delay δ applied on a hop *)
    | Chain_ack  (** chain commit acknowledged back to the sender *)
    | Ser_commit
        (** serializer [ser]'s chain committed the [oseq]-th label origin
            [origin] pushed into the tree of [epoch]: the exactly-once,
            FIFO-per-origin oracle of the fault checker. Serializer ids and
            oseqs restart per epoch *)
    | Head_change  (** a chain head crashed and the chain healed *)
    | Sink_emit  (** a label sink emitted a stable label *)
    | Proxy_apply  (** a remote update was installed; [fallback] tells which path ordered it *)
    | Proxy_mode  (** a proxy switched ordering modes *)
    | Stab_round  (** a baseline stabilization round completed *)
    | Vec_advance  (** a baseline version vector advanced *)
    | Switch_begin  (** online reconfiguration (paper §6.2) toward [epoch] started *)
    | Switch_done  (** [dc]'s proxy finished its migration into [epoch] *)
    | Span_begin  (** simulated time starts accruing to a span's kind *)
    | Span_end  (** …and stops; must match an open begin field for field *)
end

(** One event, unboxed: its kind, a flag and up to six int fields in the
    order of its typed emitter's arguments (and of its JSONL line),
    unused ones 0. The flag is [Link_drop]'s [in_flight],
    [Proxy_apply]'s [fallback], [Proxy_mode]'s [mode = Fallback] and
    [Switch_begin]'s [graceful]; it is false on every other kind. A span
    carries [origin; seq; aux; site; peer; epoch] in [f0..f5] and its
    {!span_kind}, which is [Sk_sink_hold] on point kinds.

    A view is a flyweight: the probe (or the decoder) overwrites it with
    the next event, so a callback that is handed one must read what it
    needs before it returns and must not keep it. *)
type view = private {
  mutable kind : Kind.t;
  mutable span_kind : span_kind;
  mutable flag : bool;
  mutable f0 : int;
  mutable f1 : int;
  mutable f2 : int;
  mutable f3 : int;
  mutable f4 : int;
  mutable f5 : int;
}

type t

val create : ?keep:bool -> unit -> t
(** [keep] (default true) keeps every event for {!iter_views} and
    {!write_jsonl}. With [~keep:false] only the running digest, per-kind
    counts and span totals are maintained, and no kept-event storage is
    allocated, so unbounded runs stay O(1) space. *)

(** {2 The process-wide sink} *)

val active : unit -> bool
(** Cheap guard for instrumentation points: check it before calling an
    emitter, so that disabled probes cost one branch and no call. *)

val with_probe : t -> (unit -> 'a) -> 'a
(** Installs [t] for the duration of the callback, restoring the previous
    sink afterwards (exception-safe). *)

(** {2 Typed emitters}

    One per point kind, named after it, with the event's fields as
    labelled arguments. Each records into the installed sink, if
    any, and allocates nothing. The span emitters are {!Span.begin_} and
    {!Span.end_}. *)

val engine_step : at:Time.t -> seq:int -> unit
val link_send : at:Time.t -> size_bytes:int -> unit
val link_deliver : at:Time.t -> unit
val link_drop : at:Time.t -> in_flight:bool -> unit
val fifo_resend : at:Time.t -> sender:int -> seq:int -> unit

val label_forward :
  at:Time.t -> dc:int -> gear:int -> ts:int -> oseq:int -> inst:int -> epoch:int -> unit

val serializer_hop : at:Time.t -> from_ser:int -> to_ser:int -> unit
val serializer_deliver : at:Time.t -> dc:int -> unit
val delay_wait : at:Time.t -> serializer:int -> us:int -> unit
val chain_ack : at:Time.t -> seq:int -> unit
val ser_commit : at:Time.t -> ser:int -> origin:int -> oseq:int -> epoch:int -> unit
val head_change : at:Time.t -> ser:int -> unit
val sink_emit : at:Time.t -> dc:int -> ts:int -> unit

val proxy_apply :
  at:Time.t -> dc:int -> src_dc:int -> gear:int -> ts:int -> fallback:bool -> unit

val proxy_mode : at:Time.t -> dc:int -> mode:mode -> unit
val stab_round : at:Time.t -> dc:int -> gst:int -> unit
val vec_advance : at:Time.t -> dc:int -> src:int -> ts:int -> unit
val switch_begin : at:Time.t -> epoch:int -> graceful:bool -> unit
val switch_done : at:Time.t -> dc:int -> epoch:int -> unit

val span_begin :
  at:Time.t -> aux:int -> site:int -> peer:int -> epoch:int -> span_kind -> origin:int -> seq:int ->
  unit
(** What {!Span.begin_} calls. *)

val span_end :
  at:Time.t -> aux:int -> site:int -> peer:int -> epoch:int -> span_kind -> origin:int -> seq:int ->
  unit
(** What {!Span.end_} calls. *)

(** {2 Reading a probe} *)

val count : t -> int

val iter_views : t -> (Time.t -> view -> unit) -> unit
(** [iter_views t f] decodes the packed trace and calls [f at v] on every
    kept event, in emission order, with [v] holding what the event's
    emitter recorded. One view is reused for the whole pass (see
    {!view}), so the pass allocates nothing per event.
    @raise Invalid_argument if the probe was created with [~keep:false]. *)

val span_of_view : view -> span
(** The span a [Span_begin] or [Span_end] view carries, as a value that
    outlives the view. *)

val subscribe : t -> (Time.t -> view -> unit) -> unit
(** [subscribe t f] calls [f at v] on every event recorded {e from now
    on}, as it is recorded and after the probe's own accounting,
    regardless of [keep]. [v] is the probe's own flyweight {!view}: it is
    valid only until [f] returns, and the next event overwrites it.
    Subscribers run in subscription order, and notifying them allocates
    nothing per event: a streaming analyzer costs only what [f] itself
    does. *)

val counts_by_kind : t -> (string * int) list
(** Event counts grouped by kind, name-sorted. Available regardless of
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
    16-character hex string: the bytes {!write_jsonl} writes, folded in
    as each event is recorded, without the line being rendered. Stable
    across processes, and independent of [keep] and of any
    {!stream_jsonl} channel — the CI determinism gate compares these. *)

(** {2 Export} *)

val write_jsonl : t -> out_channel -> unit
(** One JSON object per recorded event, one per line, in emission order:
    e.g. [{"t":1200,"ev":"serializer_hop","from":0,"to":1}].
    @raise Invalid_argument if the probe was created with [~keep:false].
    For count-only probes use {!stream_jsonl} instead. *)

val stream_jsonl : t -> out_channel -> unit
(** Attaches a streaming JSONL sink: every event recorded {e from now on}
    is written to [oc] as it happens, regardless of [keep] — O(1) memory
    export for unbounded runs. The caller owns (flushes, closes) the
    channel after the run. *)
