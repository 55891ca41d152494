(** Social-network op stream over a partitioned graph (§7.4).

    Draws operation kinds from the Benevenuto mix ({!Scale.mix}) for a
    given user and resolves each against the partitioning: a target key
    not replicated at the user's master datacenter becomes a remote read.
    {!Scale.Ops} draws the same mix against arithmetic placement for the
    scale tiers, so the two streams differ only in how they resolve a
    key. *)

type t

val create : Social_partition.t -> value_size:int -> seed:int -> t

val next : t -> user:int -> Op.t
(** Next operation for [user], resolved to local read / write / remote read
    against the user's master datacenter. *)

val remote_fraction : t -> float
(** Fraction of generated operations that required remote access so far. *)
