(** Which datacenters replicate which keys.

    This is the partial geo-replication description: the "correlation"
    between datacenters in the paper's terms is exactly how much of this map
    they share. Built once per experiment by the workload layer and consulted
    by gears (where to ship payloads), serializers (which subtrees are
    interested in a label — genuine partial replication) and frontends. *)

type t

val create : n_dcs:int -> n_keys:int -> assign:(int -> int list) -> t
(** [assign key] lists the datacenters replicating [key]; duplicates are
    removed, and the list must be non-empty with ids in [0, n_dcs).
    Keys with the same replica set share one stored copy of it, so a map
    retains about a word per key plus a bit per key and datacenter,
    however many keys there are.
    @raise Invalid_argument on an invalid assignment. *)

val n_dcs : t -> int
val n_keys : t -> int

val replicas : t -> key:int -> int list
(** Sorted, duplicate-free. *)

val replica : t -> key:int -> int -> int
(** [replica t ~key i] is the [i]-th of {!replicas} (ascending), for
    [0 <= i < degree t ~key]: walking a key's replicas without building
    the list. *)

val mask : t -> key:int -> int
(** The replicas of [key] as a bitmask (bit [dc] set for each), without
    allocating. @raise Invalid_argument when the map has more than 62
    datacenters. *)

val replicates : t -> dc:int -> key:int -> bool

val local_keys : t -> dc:int -> int list
(** Keys replicated at [dc], ascending. *)

val degree : t -> key:int -> int

val mean_degree : t -> float

val shared_keys : t -> int -> int -> int
(** Number of keys replicated at both datacenters — the correlation between
    the two sites. *)

val full : n_dcs:int -> n_keys:int -> t
(** Full replication: every datacenter replicates every key. *)
