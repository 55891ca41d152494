(** The rule set. Every rule front-runs one of CI's runtime determinism
    or invariant gates: what the digest/tiling/counter/bytes gates catch
    after the fact — and only on the scenarios CI replays — these catch
    at the source level, on every path.

    - [unordered-iteration] (R1): [Hashtbl.iter]/[fold]/[to_seq] must not
      let table order escape. The def-use classifier in {!Dataflow}
      recognizes sorts in the same statement, commutative fold
      reductions, bindings that only drive [Hashtbl.remove] sweeps or are
      sorted before any read, and array fills sorted below — anything
      else needs a waiver with a proof (front-runs the trace-digest
      gate).
    - [ambient-nondeterminism] (R2): wall clocks ([Unix.gettimeofday],
      [Sys.time]), module-level [Random], [Marshal] and [Hashtbl.hash]
      are forbidden in the scanned tree (front-runs the digest gate;
      [bench/] wall-clock reporting is outside the default scan scope).
    - [span-pairing] (R3): every [Span.begin_] call site must have a
      matching [Span.end_] for the same [Sk_*] constructor somewhere in
      the tree (front-runs the exact-tiling gate).
    - [counter-name-grammar] (R4): counter names reaching the registry
      must match [[a-z0-9_.*>-]+] and the dotted family.metric
      convention; [Stats.Series] registration sites additionally need the
      ["series."] prefix the runtime enforces; and every name in
      [ci/smoke-counters.txt] must still be coverable by a registration
      site (front-runs the probe-counter gate).
    - [physical-equality] (R5): [==]/[!=] compare addresses; use [=]/[<>]
      or waive an intentional identity check.
    - [nondeterminism-taint] (R6): values derived from ambient sources
      (wall clock, module-level [Random], [Hashtbl.hash], unsorted
      [Hashtbl] folds) are tracked through let-bindings and function
      returns within a module; a finding fires only where taint reaches
      a sink — probe/span emission, registry/series recording, digest
      inputs, engine scheduling (front-runs the digest gate at one
      remove: the PR 8 [Reliable_fifo] id leak reached the digest
      through two let-bindings R2 could not see).
    - [layer-boundary] (R7): the deny edges declared in [ci/layers.txt]
      — identifier chains and dune dependency edges — hold; this is the
      transport-agnostic split the live-mode refactor needs (front-runs
      the in-sim/live divergence the ROADMAP's smoke deployment will
      gate).
    - [protocol-invariant] (R8): every [ship]/bulk-send call site passes
      [~size_bytes], records [Stats.Meta_bytes] in its enclosing
      definition, and — in [lib/core] — threads an epoch; every
      [Probe.Kind] constant has a consumer in [Faults.Checker],
      [Harness.Journey] or [Harness.Chrome] (front-runs the
      metadata-bytes and fault-matrix gates).
    - [dead-export] (R9): [.mli] values never referenced outside their
      module, and top-level [.ml] values the interface hides that the
      file itself never uses (keeps the surface the other rules must
      reason about minimal). *)

type finding = { rule : string; file : string; line : int; message : string }

val r_unordered : string
val r_ambient : string
val r_span : string
val r_counter : string
val r_physeq : string
val r_taint : string
val r_layer : string
val r_proto : string
val r_dead : string
val r_unused_waiver : string
val r_bad_waiver : string

val waivable : string list
(** Rule names a [(* lint: allow … *)] comment may reference. *)

val all_rules : string list
(** Every rule name, waivable or not, for per-rule report counts. *)

type span_site = { sp_file : string; sp_line : int; sp_kind : string option; sp_is_begin : bool }

type reg_pattern = { rp_file : string; rp_line : int; rp_pattern : string }

type file_facts = {
  ff_findings : finding list;
      (** R1, R2, R5, R6, R8's ship half and R4's grammar half *)
  ff_spans : span_site list;  (** inputs to the cross-file R3 check *)
  ff_patterns : reg_pattern list;  (** inputs to the cross-file R4 check *)
}

val analyze_file : file:string -> Token.t array -> file_facts

val pair_spans : span_site list -> finding list
(** Cross-file half of R3, over the whole tree's collected sites. *)

val check_baseline : file:string -> string list -> reg_pattern list -> finding list
(** Cross-file half of R4: [lines] is [ci/smoke-counters.txt]. *)

val check_probe_consumers : (string * Token.t array) list -> finding list
(** Cross-file half of R8: every [Probe.Kind.t] constant (from the
    scanned [simulator/probe.mli]) must appear in at least one of
    [faults/checker.ml], [harness/journey.ml], [harness/chrome.ml]. *)

val check_layers :
  layers:Layers.t -> libs:Modgraph.lib list -> (string * Token.t array) list -> finding list
(** R7 over tokenized sources: identifier chains and dune dependency
    edges against the declared deny list. *)

val check_dead_exports :
  sources:(string * Token.t array) list ->
  use_sources:(string * Token.t array) list ->
  finding list
(** R9: [sources] are the scanned tree (findings land there);
    [use_sources] are reference-only trees (tests, benches, examples)
    whose uses keep an export alive without being scanned themselves. *)

val matches : pattern:string -> string -> bool
(** Glob match; [*] spans any substring. Exposed for tests. *)
