(** Label sink (§4): turns the per-gear label streams of one datacenter
    into a single serial stream that respects causality.

    Follows the deferred-stabilization technique the paper adopts from
    Eunomia [32]: labels are collected asynchronously from all gears, and
    every period the sink emits — in timestamp order — those labels whose
    timestamp is below every gear's floor, i.e. labels that can no longer
    be preceded by anything. The coordination is off the client's critical
    path, unlike sequencer-based designs. *)

type t

val create :
  Sim.Engine.t ->
  gears:Gear.t array ->
  period:Sim.Time.t ->
  emit:(Label.t -> unit) ->
  observer:Stats.Observer.t ->
  ?name:string ->
  unit ->
  t
(** [emit] receives labels in non-decreasing (ts, src) order; it typically
    feeds {!Service.input}. The periodic flush stops after {!stop}.
    [observer]'s registry receives the sink's counters under [name]
    (default ["sink"], e.g. ["sink.dc0"] when scoped by the datacenter);
    its series, when present, gains a [series.<name>.depth] gauge sampling
    the hold-queue depth. *)

val offer : t -> Label.t -> unit
(** Called by a gear right after persisting the update (same site; modelled
    as instantaneous). *)

val flush : t -> unit
(** Runs one stabilization round immediately (also runs periodically). *)

val stop : t -> unit

val emitted : t -> int
val buffered : t -> int
