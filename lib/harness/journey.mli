(** Per-label journey reconstruction and visibility-latency decomposition.

    A fold over probe views in {!Faults.Checker}'s shape: {!create},
    {!step} every event — handed to {!Sim.Probe.subscribe} before the
    run, or replayed from a kept trace by {!analyze} — then {!report}.
    One walk pairs the label's spans ({!pair_spans}) and reads the
    [Label_forward] and [Proxy_apply] events. The report rebuilds, for
    every label the metadata service forwarded, the end-to-end path to
    each destination it was applied at, and attributes every simulated
    microsecond of its visibility latency to one of the {!leg}s below.
    The legs of a stream-ordered journey tile its latency exactly:
    consecutive spans share boundary instants, so the sum telescopes to
    [apply time - update time]. {!report} verifies that invariant per
    journey and reports violations in [mismatches] — CI fails on any.

    Labels applied through the timestamp fallback are counted in
    [fallback_applied] but not decomposed (the fallback path does not ride
    the tree, so tree segments do not tile its latency); labels still in
    flight when the run ends — or never applied at a destination, like
    migration markers — count as [incomplete].

    Span pairing is keyed two ways (see {!Sim.Probe.span}): tree-side
    spans by the service uid [(origin, oseq)], edge spans by the label
    identity [(origin dc, ts, gear)]. The [Label_forward] event carries
    both and is the join point. *)

(** One leg of a label's trip, in lifecycle order (paper §4): held at the
    origin sink for gear stability; attach channel into the home
    serializer; chain replication at each serializer; artificial delay δ
    before a hop or an egress; serializer-to-serializer hop; egress toward
    the destination; and the destination proxy's ordering wait. *)
type segment =
  | Sink_hold
  | Attach
  | Chain
  | Delay_hop
  | Hop
  | Delay_egress
  | Egress
  | Proxy_order

val segment_name : segment -> string

type leg = {
  segment : segment;
  us : int;  (** simulated µs spent in the leg *)
  ser : int;
      (** the serializer the leg belongs to: a [Chain]'s own, the tail of a
          [Delay_hop] or [Hop] edge, the last serializer of a
          [Delay_egress] or [Egress]; [-1] on the other legs *)
  next : int;  (** the head of a [Delay_hop] or [Hop] edge; [-1] elsewhere *)
}

type journey = {
  origin : int;  (** origin datacenter *)
  oseq : int;  (** per-origin forward sequence (the fault checker's key) *)
  dst : int;  (** destination datacenter *)
  visibility_us : int;  (** proxy apply instant − sink offer instant *)
  total_us : int;  (** sum over [legs] — equals [visibility_us] or it's a mismatch *)
  legs : leg list;  (** path order; [Chain] and [Hop] repeat per serializer and edge *)
}

val path : journey -> int list
(** Serializer ids visited, attach point first: the [Chain] legs' [ser]. *)

type seg_stat = {
  segment : segment;
  journeys : int;  (** journeys that include the segment *)
  total_us : int;
  p50_ms : float;  (** per-journey segment time percentiles *)
  p99_ms : float;
}

type report = {
  journeys : journey list;  (** complete stream-ordered journeys, (origin, oseq, dst)-sorted *)
  fallback_applied : int;
  incomplete : int;
  mismatches : string list;  (** tiling violations: must be empty on a healthy trace *)
  per_segment : seg_stat list;  (** one entry per {!segment}, in declaration order *)
}

val summary : int list -> int * int * float * float
(** [(n, total, p50 ms, p99 ms)] of µs samples, percentiles 0 when empty:
    [per_segment]'s and {!Blame}'s [per_part] statistics. *)

val pair_spans :
  (Sim.Probe.span, Sim.Time.t) Hashtbl.t ->
  (Sim.Probe.span -> Sim.Time.t -> Sim.Time.t -> unit) ->
  Sim.Time.t ->
  Sim.Probe.view ->
  unit
(** [pair_spans opens f at v] tracks open spans in [opens] (empty at
    first) and calls [f span begin end] when [v] ends one. The first begin
    of a span is kept; an end with no open begin is skipped. The journey
    fold and {!Chrome} share it. *)

type t
(** A fold's running state: open spans, matched legs, forwarded labels
    and each label's first apply per destination. *)

val create : unit -> t

val step : t -> Sim.Time.t -> Sim.Probe.view -> unit
(** Folds one event in. Events must arrive in emission order. The view
    is read before [step] returns and not kept. *)

val report : t -> report
(** The decomposition of every event stepped so far. The fold stays
    usable: more steps and another [report] may follow. *)

val analyze : Sim.Probe.t -> report
(** [create], [step] over every kept event ({!Sim.Probe.iter_views}),
    [report]: the post-run form of the same fold.
    @raise Invalid_argument if the probe was created with [~keep:false]. *)

val table : report -> Stats.Table.t
(** The decomposition table printed after bench experiments: per segment,
    journey count, total ms, share of attributed time, p50/p99. Output is
    deterministic for a deterministic trace. *)

val check : report -> (unit, string list) result
(** [Error mismatches] when any journey's segments fail to sum to its
    measured visibility latency. *)
