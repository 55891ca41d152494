(** Social-network operation mix (§7.4).

    Based on the characterization of Benevenuto et al. [15]: sessions are
    dominated by browsing (~92% reads), most activity targets friends'
    content, a small share is universal (random-user) browsing, and writes
    split between own content, friends' walls and album uploads. Each
    operation is resolved against the partitioning: a target key not
    replicated at the user's master datacenter becomes a remote read. *)

type kind =
  | Browse_friend_wall  (** 52% — read a friend's wall *)
  | Browse_friend_albums  (** 15% — read a friend's albums *)
  | Read_own_wall  (** 17% — read own wall/profile *)
  | Universal_search  (** 6% — read a random user's wall *)
  | Update_own_wall  (** 5% — write own wall (status, settings) *)
  | Write_friend_wall  (** 3% — message/comment on a friend's wall *)
  | Upload_album  (** 2% — write own albums object *)

val mix : (kind * float) list
(** The percentages above; sums to 1. *)

val kind_of_draw : float -> kind
(** [kind_of_draw x] for a uniform draw [x] in [\[0, 1)]: the first kind
    whose running share in [mix] exceeds [x]. Allocates nothing, so every
    op stream over the mix picks through it. *)

type t

val create : Social_partition.t -> value_size:int -> seed:int -> t

val next : t -> user:int -> Op.t
(** Next operation for [user], resolved to local read / write / remote read
    against the user's master datacenter. *)

val remote_fraction : t -> float
(** Fraction of generated operations that required remote access so far. *)
