(** Differential run localization: not "the runs differ" but {e where
    they first diverge}.

    The determinism gates double-run an experiment and compare artifacts;
    when a raw [diff] fails, the operator is left staring at two 2000-row
    CSVs. This module understands the repo's artifact formats and reports
    the first diverging {e unit of meaning} instead:

    - series CSV → the first diverging window, named by series and
      window start time;
    - counter files ("name value" lines, ['#'] comments) → the first
      counter whose value drifts or that exists on one side only
      (merge-walked over the name-sorted lists, so one missing counter
      is one finding, not a cascade);
    - journey gap CSV → the first diverging journey, named by identity
      and the first column that differs ("journey dc0#17 -> dc2 gap_us");
    - anything else → the first differing line, numbered as in the file.

    All localizers are pure string functions ({!content} dispatches on
    basename); {!files}/{!dirs} add the IO. Deterministic throughout. *)

type finding = {
  file : string;  (** [""] when comparing raw content *)
  kind : string;  (** ["series" | "counter" | "journey" | "line" | "missing"] *)
  where : string;  (** human-readable locator of the first divergence *)
  a : string;  (** the A side at that point, [ "<absent>"] if one-sided *)
  b : string;
}

type result = Same | Differs of finding

val lines : ?file:string -> string -> string -> result
val counters : ?file:string -> string -> string -> result
val series_csv : ?file:string -> string -> string -> result
val journeys : ?file:string -> string -> string -> result

val content : file:string -> string -> string -> result
(** Dispatch to the right localizer from [file]'s basename:
    [series.csv], [gap.csv], [*counters.txt]/[*.counters], else lines. *)

val files : a:string -> b:string -> result
(** Read both paths and localize ([a]'s basename picks the format). *)

val dirs : string -> string -> finding list
(** Compare two artifact trees file by file, recursing into
    subdirectories (union of both sides, name-sorted per directory;
    [file] is the path relative to the roots): one finding per differing
    file — its first divergence — and one ["missing"] finding per entry,
    file or whole directory, present on only one side. Empty means
    identical. *)

val render : finding -> string
(** Three lines: locator, A value, B value. *)
