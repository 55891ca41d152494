(** The observability smoke scenario: a small fixed-seed Saturn run that
    exercises every traced subsystem — engine steps, link traffic,
    serializer hops and artificial delays on an explicit three-serializer
    chain, sink emissions and proxy applies — with a probe installed and
    every counter collected in one registry.

    Because the simulator is deterministic, the probe digest is a pure
    function of the seed: [saturn-cli gate] runs it once per process and
    CI diffs two gate manifests, trace digest included. *)

type result = {
  digest : string;  (** FNV-1a digest of the JSONL trace *)
  n_events : int;  (** probe events recorded *)
  ops : int;  (** client operations completed in the measurement window *)
  visibility : Stats.Hdr.t;
      (** remote-update visibility latency in simulated µs, one observation
          per visible remote update — [BENCH_smoke.json]'s [visibility_ms] *)
  registry : Stats.Registry.t;
  series : Stats.Series.t;  (** windowed telemetry, sealed at run end *)
  probe : Sim.Probe.t;
  journeys : Journey.report;
      (** the per-label visibility decomposition, from a {!Journey} fold
          subscribed during the run — the [decomposition.txt] artifact *)
  blame : Blame.report;
      (** optimality-gap attribution over the run's complete journeys;
          rendered as the [blame.txt]/[gap.csv] artifacts and folded into
          the counter baseline as the [blame.*] family *)
}

val smoke : ?seed:int -> unit -> result
(** Runs the scenario (default seed 42). Pure apart from simulation. The
    registry also collects per-subsystem matched-span time as
    [span.<kind>.us] counters next to the [probe.*] event counts, and each
    windowed series' total sample count as [series.<name>.n] counters so
    the counter gate catches a series going silent. Next to [series.vis_ms]
    a [series.gap_ms] histogram series records each visible event's gap
    over its shortest-bulk-path optimum — the time-resolved face of the
    blame report. *)

val write_artifacts : result -> out_dir:string -> string list
(** Writes [trace.jsonl], [trace.digest], [trace.chrome.json],
    [decomposition.txt], [series.csv], [series.json], [blame.txt] and
    [gap.csv] under [out_dir] and returns their paths. *)

val bench_json : seed:int -> result -> string
(** The one-line [saturn-bench-smoke/1] document ([BENCH_smoke.json]):
    throughput, visibility percentiles (read from [visibility], in ms),
    gap percentiles, each gauge series' peak. *)

(** {2 Probe-counter regression gate}

    The smoke run's counters are deterministic for a given build, but they
    legitimately drift as the code evolves (new instrumentation, changed
    batching). The gate therefore checks them against a checked-in
    baseline with a tolerance band instead of byte equality: a small drift
    passes, an order-of-magnitude regression (a probe silently disabled, a
    subsystem gone quiet) fails. *)

val counters_text : result -> string
(** Every counter of the run as ["name value"] lines, name-sorted, under a
    two-line ['#'] header — the baseline format of {!check_counters}. *)

val check_counters : baseline:string -> string -> string list
(** [check_counters ~baseline run] over two counter files' contents: every
    baseline counter must be in [run], and the larger of the two values at
    most 1.25 times the smaller, whichever side it is on (or the two at
    most 1 apart, so zero baselines are not brittle). A line without a
    space or an integer value is a ["malformed baseline line"] (or [run])
    finding. Empty means OK. *)
