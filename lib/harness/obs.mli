(** The observability smoke scenario: a small fixed-seed Saturn run that
    exercises every traced subsystem — engine steps, link traffic,
    serializer hops and artificial delays on an explicit three-serializer
    chain, sink emissions and proxy applies — with a probe installed and
    every counter collected in one registry.

    Because the simulator is deterministic, the probe digest is a pure
    function of the seed: CI runs the scenario twice and asserts the two
    digests are byte-identical. *)

type result = {
  digest : string;  (** FNV-1a digest of the JSONL trace *)
  n_events : int;  (** probe events recorded *)
  ops : int;  (** client operations completed in the measurement window *)
  registry : Stats.Registry.t;
  series : Stats.Series.t;  (** windowed telemetry, sealed at run end *)
  probe : Sim.Probe.t;
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

val run_smoke : ?seed:int -> ?out_dir:string -> unit -> result
(** {!smoke}, then prints the registry table and the digest to stdout and,
    when [out_dir] is given, writes the artifacts. *)

(** {2 Probe-counter regression gate}

    The smoke run's counters are deterministic for a given build, but they
    legitimately drift as the code evolves (new instrumentation, changed
    batching). CI therefore checks them against a checked-in baseline with
    a tolerance band instead of byte equality: a small drift passes, an
    order-of-magnitude regression (a probe silently disabled, a subsystem
    gone quiet) fails. *)

val write_counters : result -> path:string -> unit
(** Writes every counter of the run as ["name value"] lines, name-sorted
    (the baseline format of {!check_counters}). *)

val check_counters :
  result -> baseline:string -> tolerance:float -> (unit, string list) Stdlib.result
(** Compares the run against a baseline file. Each baseline counter must
    exist in the run and lie within [± tolerance × baseline] (at least
    ±1, so zero baselines are not brittle). [Error] lists every failure. *)
