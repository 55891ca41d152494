(** The determinism gate: the one map from gated scenario to checked-in
    baseline to comparison.

    {!run} (seed 42) runs the fault matrix, the smoke scenario, every
    {!Shootout.systems} row and the default seven-region plan once each and
    writes a manifest under [out_dir]: [smoke/] ({!Obs.write_artifacts}'
    set, [blame.digest], [smoke-counters.txt], [BENCH_smoke.json]);
    [faults/] ([matrix.txt], [faults-digest.txt], [series-digest.txt], and
    the series dumps and timeline of each [series-digest.txt] row under
    [<scenario>-<system>/]); [shootout/BENCH_shootout.json];
    [plan/plan-default.txt]. Every file is a pure function of the build, so
    two processes' manifests must agree under {!Diff.dirs}. *)

type rule =
  | Exact  (** byte-identical, localized by {!Diff.content} *)
  | Counters  (** {!Obs.check_counters}: each counter within a factor of 1.25 *)
  | Bench  (** {!Engine_bench.check} per row and metric, then byte-identical *)

type baseline = {
  file : string;  (** path inside the manifest *)
  checked_in : string;  (** path under the repository root *)
  rule : rule;
}

val baselines : baseline list
(** [ci/smoke-counters.txt], [ci/faults-digest.txt],
    [ci/series-digest.txt], [ci/plan-default.txt], [BENCH_smoke.json],
    [BENCH_shootout.json]. *)

val series_digest_line : Stats.Series.t -> string
(** One line of [series-digest.txt], as [saturn-cli series] prints it. *)

val compare : root:string -> manifest:string -> string list
(** Every baseline under [root] against its manifest copy. Each finding
    names the checked-in file and what moved (counter, row and metric, or
    first diverging line); a file missing on either side is a finding.
    Empty means the gate holds. *)

val write_baselines : root:string -> manifest:string -> unit
(** Copies each baseline from the manifest over its checked-in path. *)

val orphan_findings : (string * Sim.Probe.t) list -> string list
(** One finding per named run whose probe recorded a span end that matched
    no open begin ({!Sim.Probe.span_orphans}), naming the run and the
    count. A spurious end hides a real pairing bug among its peers, so
    every gated probe must end only what it began. *)

val run : ?write:bool -> root:string -> out_dir:string -> unit -> string list
(** Runs the scenarios and writes the manifest, then returns every finding:
    journey and blame tiling on the smoke run and on every Saturn matrix
    row, fault-matrix invariant violations, {!orphan_findings} on the
    smoke run and every matrix row, and {!compare} — or, with [~write:true],
    {!write_baselines} instead of {!compare}. Prints progress, the matrix
    and the shootout table. *)
