(** Tail-latency blame: per-journey optimality-gap attribution.

    {!Journey} tells you where a label's visibility latency went;  this
    module tells you which part of it was {e avoidable}. For every
    complete journey the optimal visibility is the shortest bulk path
    from origin to destination ({!optimal_matrix} — Floyd–Warshall over
    the datacenter-to-datacenter bulk latencies, so a geography that
    violates the triangle inequality still gets the true floor, the
    paper's "deviation from optimal" baseline). The gap

    {[ gap_us = visibility_us - optimal_us ]}

    is then attributed to five {!part}s that {b sum to it exactly}:
    sink hold, serializer chain time, configured δ-delays, proxy
    ordering wait, and [Transit_excess] — the physical route's cost
    (attach + hops + egress) beyond the shortest path, i.e. detours the
    tree takes off the optimal route. The tiling inherits exactness from
    Journey's segment tiling by construction; {!check} fails (and CI
    with it) if any journey's parts miss its gap.

    [Transit_excess] is the one signed part: a direct tree edge can beat
    a relayed shortest path only when they coincide (then it is 0), but
    measurement of the same link under load can make individual journeys
    land a few µs under the static matrix — negative excess is real
    signal (the matrix is conservative), kept so the sum stays exact.

    Beyond the per-part table the report ranks {e culprits}: concrete
    edges, serializers, sinks and proxies ("ser1", "delta.s0->s1",
    "route.dc0->dc2"), scored by how much gap they contributed to the
    {b tail} — the slowest tenth of journeys by gap. That is the
    question an operator actually asks: not "where does time go on
    average" but "what do the p99 stragglers have in common". *)

type part = Sink_hold | Serializer | Delta | Proxy_order | Transit_excess

val parts : part list
(** In presentation order; [per_part] below has one entry per element. *)

val part_name : part -> string

type blamed = {
  j : Journey.journey;
  optimal_us : int;  (** shortest bulk path origin -> dst *)
  gap_us : int;  (** [visibility_us - optimal_us]; never negative on a
                     healthy trace (visibility rides at least one full
                     bulk traversal) *)
  blame : (part * int) list;  (** one entry per {!parts} element; sums to [gap_us] *)
  culprits : (string * int) list;  (** named overhead sources, path order, µs *)
}

type part_stat = { part : part; journeys : int; total_us : int; p50_ms : float; p99_ms : float }

type culprit_stat = {
  culprit : string;
  c_journeys : int;  (** journeys the culprit appears in *)
  c_total_us : int;  (** gap µs attributed to it, all journeys *)
  c_tail_us : int;  (** gap µs attributed to it within tail journeys only *)
}

type report = {
  blamed : blamed list;  (** (origin, oseq, dst)-sorted, like [Journey.journeys] *)
  by_gap : blamed list;  (** the same journeys, largest gap first, ties by (origin, oseq, dst) *)
  per_part : part_stat list;
  culprits : culprit_stat list;  (** ranked: tail µs desc, then total, then name *)
  gap_hist : Stats.Hdr.t;  (** gap distribution — p50/p99/p99.9 in {!render} *)
  tail_threshold_us : int;  (** smallest gap that still counts as tail *)
  optimal_total_us : int;
  mismatches : string list;  (** Journey's tiling violations plus any blame
                                 part sum that misses its gap *)
  fallback_applied : int;
  incomplete : int;
}

val optimal_matrix :
  topo:Sim.Topology.t -> dc_sites:int array -> bulk_factor:float -> int array array
(** [m.(i).(j)] is the cheapest bulk-fabric cost from datacenter [i] to
    [j] in µs: all-pairs shortest path over the direct bulk latencies
    (topology latency scaled by [bulk_factor], same rounding as the
    metrics pipeline). Diagonal is 0. *)

val observe_series : Sim.Engine.t -> Metrics.t -> Stats.Series.t -> Build.spec -> int array array
(** Registers the [series.vis_ms] and [series.gap_ms] histograms and
    subscribes one {!Metrics} observer recording each visibility event's
    latency in the first and its gap over the spec's {!optimal_matrix},
    which it returns, in the second. *)

val analyze : optimal:int array array -> Journey.report -> report

val check : report -> (unit, string list) result
(** [Error _] when any blame tiling (or underlying journey tiling) is
    violated — the per-PR CI gate. *)

val top_k : report -> k:int -> blamed list
(** The [k] slowest journeys by gap, deterministically tie-broken by
    (origin, oseq, dst). *)

val table : report -> Stats.Table.t
(** Per-part blame table: journeys touched, total ms, share of gap,
    p50/p99 of the per-journey part time. *)

val culprit_table : report -> Stats.Table.t

val render_journey : blamed -> string
(** Two lines: the headline identity/vis/optimal/gap, then the annotated
    path with every leg's µs ("hop s0->s1 40.000 | ser1 0.031 | ..."). *)

val render : ?top:int -> report -> string
(** The blame.txt artifact: gap percentiles, both tables, the [top]
    (default 5) slowest journeys annotated, and any mismatches. *)

val gap_csv : report -> string
(** One row per journey — identity, path, visibility/optimal/gap and the
    five blame parts in µs. Sorted, header included, deterministic. *)

val digest : report -> string
(** FNV-1a 64-bit digest of {!gap_csv}, 16 hex digits — the double-run
    blame gate compares exactly this. *)

val fold_counters : report -> Stats.Registry.t -> unit
(** Register and bump the [blame.*] counters: [blame.journeys],
    [blame.gap.us], [blame.optimal.us] and one [blame.part.<name>.us]
    per part. *)
