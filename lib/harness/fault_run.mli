(** Fixed-seed fault-injection scenario matrix.

    Runs the shared three-datacenter chain deployment
    ({!Build.three_site}, three replicas per serializer) under
    the paper's §6 failure model — a serializer head crash mid-stream, a
    transient partition, and a latency spike on the tree's busiest edge —
    for Saturn and for the eventual baseline, with a probe installed and a
    {!Faults.Checker} subscribed to it, checking every event as it is
    recorded. Four Saturn-only
    reconfiguration rows (§6.2) drive a mid-run epoch switch to
    {!Build.backup_config}: a clean graceful switch, a graceful switch
    composed with a metadata-tree cut, a forced switch after a whole
    serializer chain crashes, and a backup-tree failover while the busiest
    edge is degraded — the cross-epoch checker invariants (marker last
    through the old tree, no duplicate applies across trees, route
    monotonicity) run over all of them.

    Saturn's partition cuts the metadata tree (its failure domain; the
    paper's bulk-data transfer service is the datastore's own, reliable
    channel), while the eventual baseline's partition cuts the bulk links
    it replicates over — its only channel, and an unreliable one, which is
    the point of the comparison.

    The matrix is deterministic in its seed: [saturn-cli gate] pins the
    combined digest in [ci/faults-digest.txt], and CI compares two gate
    runs. *)

type outcome = {
  scenario : string;
  system : string;
  ops : int;  (** client operations completed in the measurement window *)
  vis_mean_ms : float;  (** remote-update visibility, mean *)
  vis_p99_ms : float;
  recovery_ms : float;
      (** time after the last restorative plan event until the last
          fault-era update (origin time before that event) became visible;
          0 when nothing was left to drain. *)
  report : Faults.Checker.report;
      (** the subscribed checker's verdict; equal to
          [Faults.Checker.analyze probe] *)
  digest : string;  (** probe digest of this run *)
  n_events : int;
  registry : Stats.Registry.t;
      (** the run's counters: [metrics.*], the injector's fault counters
          and [probe.*] event counts. Only Saturn rows hand it to
          {!Build.make}, so only they carry deployment counters such as
          [meta.bytes.saturn.*]. The five baseline rows
          (ser-crash/eventual, seq-crash/eunomia, partition/eventual,
          partition/okapi, latency-spike/eventual) build with a private
          registry, so this one holds no [meta.bytes.*] counter for them,
          and a matrix-wide mean of metadata bytes per op averages five
          zeros in with the seven Saturn rows. *)
  series : Stats.Series.t;
      (** windowed telemetry of this run (queue depths, apply throughput,
          [series.vis_ms] visibility latency), sealed at run end *)
  fault_at_us : int option;  (** the plan's earliest event; [None] for empty plans *)
  heal_at_us : int option;
      (** the restorative reference that [recovery_ms] measures from: the
          plan's last heal, or its last event when nothing heals *)
  probe : Sim.Probe.t;
      (** the run's kept trace — what [saturn-cli blame --scenario] feeds
          through {!Journey.analyze} and {!Blame.analyze} *)
}

type system = [ `Saturn | `Eventual | `Eunomia | `Okapi ]
(** The systems the matrix runs. *)

val systems : system list
(** [[`Saturn; `Eventual; `Eunomia; `Okapi]] — the single source the CLI
    builds its [--system] enum and help text from, through {!Build.name}. *)

val scenario_names : string list
(** [["ser-crash"; "seq-crash"; "partition"; "latency-spike";
    "reconfig-graceful"; "reconfig-cut"; "reconfig-forced";
    "reconfig-backup"]] — the single source the CLI builds its
    [--scenario] enum and help text from. *)

val run_matrix : ?seed:int -> unit -> outcome list
(** The fixed row set (default seed 42): every fault scenario for Saturn
    and the eventual control, the rows the newcomers were added for — the
    sequencer crash for Eunomia (mirroring the serializer-crash row) and
    the partition for Okapi — and the four Saturn-only reconfiguration
    rows (the baselines have no tree to migrate). *)

val run_scenario :
  ?seed:int ->
  scenario:string ->
  system:system ->
  unit ->
  outcome
(** One cell of the matrix (default seed 42). Only the latency-spike and
    reconfig-backup scenarios pay for the fault-free pre-run that locates
    the busiest edge.
    @raise Invalid_argument on a name outside {!scenario_names}. *)

val series_recovery_ms : outcome -> float option
(** Recovery measured {e from the windowed series}: the start of the first
    window at or after the heal whose [series.vis_ms] p99 is back within
    tolerance of the pre-fault steady state ({!Stats.Series.recovery_window}),
    minus the heal time. [None] when the run had no fault, no pre-fault
    calibration windows, or never recovered. Independent of — and a
    cross-check on — the drain-based [recovery_ms]; the two agree to within
    one window width. *)

val blame : Journey.report -> Blame.report
(** Optimality-gap attribution over a row's journeys
    ([Journey.analyze o.probe]), against the optimal matrix of this
    module's own deployment spec — what [saturn-cli blame --scenario
    <fault>] prints. *)

val gap_recovery_ms : outcome -> float option
(** Like {!series_recovery_ms} but over [series.gap_ms] — the per-event
    visibility gap above the shortest-bulk-path optimum. Because the
    optimum is constant per (origin, dst) pair, this isolates recovery of
    the {e avoidable} latency: it lands with {!series_recovery_ms} when
    the fault inflated every journey uniformly, and earlier when the tail
    was all route overhead. Reported per scenario in the matrix table
    ("gap rec ms") next to the drain-based [recovery_ms]. *)

val recovery_agrees : outcome -> bool option
(** Whether the two recovery measurements land in the same window ±1 —
    the finest agreement a window-quantized series can certify. [None]
    when {!series_recovery_ms} is [None]. *)

val timeline_string : outcome -> string
(** The recovery-timeline view: one sparkline per series (queue depths,
    apply throughput, visibility p99, the [series.reconfig.dual_tree]
    migration-window gauge) over the common window axis, a marker row
    locating the fault/heal windows ([^]) and any epoch switch ([S]
    graceful, [F] forced — from the series' annotations), and the
    {!series_recovery_ms} / [recovery_ms] cross-check. *)

val matrix_digest : outcome list -> string
(** Digest over every run's probe digest — one string for the CI
    determinism gate. *)

val violations : outcome list -> int

val render : outcome list -> string
(** The results table, per-run fault counters, the checker report of every
    row with a violation, and the combined digest. *)
