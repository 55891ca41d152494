(** Replication-constrained social partitioning (§7.4).

    Implements the spirit of Pujol et al.'s "little engine(s)" placement
    [46], augmented — as in the paper — with a cap on the number of
    replicas per user to avoid degenerating into full replication:

    - each user gets a {e master} datacenter, chosen so communities stay
      together (maximising friend locality and thus minimising remote
      reads);
    - each user's data is additionally replicated at the datacenters
      hosting most of their friends, bounded by [min_replicas] and
      [max_replicas].

    Each user owns two keys: a wall ([wall_key]) and an albums object
    ([album_key]); both share the user's replica set. *)

type t

val partition :
  Scale.t -> n_dcs:int -> min_replicas:int -> max_replicas:int -> seed:int -> t
(** @raise Invalid_argument when [min_replicas > max_replicas] or
    [min_replicas < 1]. *)

val master : t -> user:int -> int
val graph : t -> Scale.t
val replica_map : t -> Kvstore.Replica_map.t
(** Over [2 × n_users] keys: walls then albums. *)

val wall_key : t -> user:int -> int
val album_key : t -> user:int -> int

val locality : t -> float
(** Fraction of friendship edges whose endpoints share a master — the
    quantity the partitioner maximises. *)

val mean_replication : t -> float
