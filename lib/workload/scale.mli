(** The synthetic social graph — the stand-in for the (no longer
    distributed) New Orleans Facebook dataset [52] — with streaming
    generation and op streams in O(edges) memory.

    The original network has 61,096 users and 905,565 edges (mean degree
    ≈ 29.6) with a heavy-tailed degree distribution and strong community
    structure. Users join communities round-robin and attach by
    preferential attachment, biased toward their own community, which
    yields a power-law tail plus locality. Generation runs against flat
    preallocated buffers of 32-bit vertex ids ([Bytes], 4 bytes an id):
    the edge list itself doubles as the degree-proportional endpoint
    pool, so a pick is one buffer index. Generation is O(edges) time and
    memory (about 4 words allocated per edge), and streaming operations out
    of the finished graph allocates O(1) per op — no per-op list, no
    per-op closure. §7.4's benchmark partitions this graph with
    {!Social_partition} and draws its ops from {!Social_ops}; the scale
    tiers draw theirs from {!Ops}.

    The CSR build sorts no row copy. Scattering the edge stream in
    generation order leaves each row as its node's own-round targets (at
    most [mean_degree / 2], all lower-numbered, unsorted) followed by
    every later node that attached to it, already ascending; an in-place
    insertion sort then costs O(degree + mean_degree²) per row. The draws
    come from {!Sim.Rng}, whose integer and coin draws allocate nothing.

    The benchmark tiers follow the paper's §7.4 dataset (61k ≈ the real
    New Orleans network) scaled ×4 and ×16: [T61k], [T250k], [T1m]. *)

type tier = T61k | T250k | T1m

val tiers : tier list
(** Smallest first. *)

val tier_name : tier -> string
(** ["61k"], ["250k"], ["1m"] — the keys used by [BENCH_engine.json]. *)

val tier_users : tier -> int
val tier_of_name : string -> tier option

type t
(** A generated graph: CSR row offsets ([int array]) and adjacency (one
    [Bytes] of 32-bit ids, which the GC never scans) plus community
    assignment. It retains about one word per edge. *)

val generate :
  n_users:int -> ?mean_degree:int -> ?locality:float -> ?communities:int -> seed:int -> unit -> t
(** Streaming preferential attachment. Defaults reproduce the New
    Orleans statistics at [n_users]: mean degree 30, communities ≈ n/250
    (at least 2), locality 0.8 (the share of attachment picks drawn from
    the user's own community). Vertex ids are 32-bit, so [n_users] is at
    most [Int32.max_int] (2{^31} - 1). @raise Invalid_argument on
    nonsensical parameters or more than [Int32.max_int] users, before
    allocating anything. *)

val of_tier : tier -> seed:int -> t
(** [generate] at the tier's user count with facebook-shaped defaults. *)

val n_users : t -> int
val n_edges : t -> int
val degree : t -> int -> int
val mean_degree : t -> float
val max_degree : t -> int

val community : t -> int -> int
(** A user's community, [user mod communities]. *)

val iter_friends : t -> int -> (int -> unit) -> unit
(** Neighbors of a user, ascending, straight out of the CSR row — no
    per-call array. *)

val friend : t -> Sim.Rng.t -> int -> int
(** [friend t rng user] is a uniform draw from the user's neighbors, or
    [user] itself when it has none. *)

val digest : t -> string
(** FNV-1a (64-bit hex) over the edge stream in generation order — the
    fixed-seed determinism oracle for this generator. *)

(** {2 Operation mix (§7.4)}

    Based on the characterization of Benevenuto et al. [15]: sessions are
    dominated by browsing (~92% reads), most activity targets friends'
    content, a small share is universal (random-user) browsing, and writes
    split between own content, friends' walls and album uploads. *)

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

(** Streaming operation source over a scale graph.

    Placement is arithmetic, not materialised: a user's master datacenter
    is [community mod n_dcs], and every key is replicated at its master
    and the next datacenter (so metadata always has somewhere to flow).
    Sampling a user of a given datacenter exploits the round-robin
    community layout and is O(1); resolving an op allocates only the
    returned {!Op.t}. *)
module Ops : sig
  type graph := t
  type t

  val n_keys : graph -> int
  (** [2 * n_users]: walls then albums. *)

  val replicas : graph -> n_dcs:int -> key:int -> int list
  (** Replica set of a key: master followed by the next datacenter
      (just the master when [n_dcs = 1]). For seeding a
      [Kvstore.Replica_map]. *)

  val create : graph -> n_dcs:int -> value_size:int -> seed:int -> t

  val next : t -> dc:int -> Op.t
  (** Next operation issued from a client homed at [dc], following the
      {!mix} distribution. Reads of keys not replicated at [dc]
      become remote reads at the key's master. *)

  val ops_issued : t -> int
  val remote_fraction : t -> float
end
