(** Orbe (Du et al., SoCC '13) — explicit dependency checking with
    dependency matrices.

    The fourth metadata family of the paper's Table 2: each version carries
    a dependency matrix with one entry per (datacenter, partition) — the
    number of updates from that partition the version depends on. A replica
    applies a remote update once it has locally applied at least that many
    updates from every referenced partition. After a write, the client's
    context collapses to the new version (the transitivity-based pruning
    that is sound under full replication only — under partial
    geo-replication a dependency on a partition whose updates this
    datacenter does not receive can never be satisfied, which is why the
    paper rules the whole explicit-check family out; see
    {!blocked_updates}). Visibility is dependency-bound (fresh, like COPS),
    metadata is O(datacenters × partitions) per update. *)

type t

include Common.S with type t := t

val create :
  observer:Stats.Observer.t -> Sim.Engine.t -> Saturn.Fabric.params -> Saturn.Fabric.hooks -> t

val mean_matrix_entries : t -> float
(** Mean number of non-zero dependency-matrix entries shipped per update —
    bounded by datacenters × partitions, vs Saturn's constant label. *)

val blocked_updates : t -> dc:int -> int
(** Remote updates stuck at [dc] because a dependency-matrix entry
    references a partition whose updates never reach it (the
    partial-replication failure mode). *)
