(** COPS-style explicit dependency checking (Lloyd et al., SOSP '11).

    Clients track explicit dependencies (key, version) and updates carry
    them; a replica applies a remote update only once every dependency it
    can check locally is satisfied. The module exists to reproduce the
    paper's §7.3.1 argument: under full replication the client's context
    can be pruned to the last write (one dependency), but under partial
    geo-replication the transitivity-based pruning is unsound — a
    dependency on an item the receiving datacenter does not replicate can
    never be checked there — so dependency lists keep growing. The
    [prune_on_write] knob selects the two regimes and
    {!mean_dependency_size} exposes the measured metadata growth. *)

type t

include Common.S with type t := t

val create :
  ?series:Stats.Series.t -> ?meta:Stats.Meta_bytes.t -> Sim.Engine.t -> Common.params ->
  Common.hooks -> prune_on_write:bool -> t

val mean_dependency_size : t -> float
(** Mean number of dependencies attached to shipped updates. *)

val max_dependency_size : t -> int
