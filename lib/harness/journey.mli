(** Per-label journey reconstruction and visibility-latency decomposition.

    Replays a kept probe trace's views ({!Sim.Probe.iter_views}) and
    rebuilds, for every label the metadata service forwarded, the
    end-to-end path to each destination it was applied at — then
    attributes every simulated microsecond of its visibility latency to
    one of the {!segment}s below. The segments of a
    stream-ordered journey tile its latency exactly: consecutive spans
    share boundary instants, so the sum telescopes to
    [apply time - update time]. {!analyze} verifies that invariant per
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

type journey = {
  origin : int;  (** origin datacenter *)
  oseq : int;  (** per-origin forward sequence (the fault checker's key) *)
  dst : int;  (** destination datacenter *)
  visibility_us : int;  (** proxy apply instant − sink offer instant *)
  total_us : int;  (** sum over [parts] — equals [visibility_us] or it's a mismatch *)
  parts : (segment * int) list;  (** per-leg µs, path order; [Chain]/[Hop] repeat per serializer *)
  path : int list;  (** serializer ids visited, attach point first — the
                        identity [Blame] needs to pin overhead on edges *)
}

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
  per_segment : seg_stat list;  (** one entry per {!segments} element, in order *)
}

val analyze : Sim.Probe.t -> report
(** Folds over {!spans}'s matched intervals, then reads the
    [Label_forward] and [Proxy_apply] views in one more pass.
    @raise Invalid_argument if the probe was created with [~keep:false]
    (journeys need the buffered event stream). *)

val spans : Sim.Probe.t -> (Sim.Probe.span * Sim.Time.t * Sim.Time.t) list
(** Every matched [(span, begin, end)] in the trace, in end order — the
    raw material for {!Chrome} export. Same [~keep:false] restriction. *)

val table : report -> Stats.Table.t
(** The decomposition table printed after bench experiments: per segment,
    journey count, total ms, share of attributed time, p50/p99. Output is
    deterministic for a deterministic trace. *)

val check : report -> (unit, string list) result
(** [Error mismatches] when any journey's segments fail to sum to its
    measured visibility latency. *)
