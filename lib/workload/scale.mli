(** Million-user scale tier: streaming social-graph generation and op
    streams with O(edges) memory.

    {!Social_graph} reproduces the New Orleans statistics faithfully but
    materialises an [Array.of_list] of the whole endpoint pool {e per
    attachment pick} — quadratic work that tops out around 10⁴ users. This
    module generates the same family of graphs (preferential attachment,
    round-robin communities, locality bias) against flat preallocated int
    arrays: the edge list itself doubles as the degree-proportional
    endpoint pool, so a pick is one array index. Generation is O(edges)
    time and memory, and streaming operations out of the finished graph
    allocates O(1) per op — no per-op list, no per-op closure.

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
(** A generated graph: CSR adjacency plus community assignment. *)

val generate :
  n_users:int -> ?mean_degree:int -> ?locality:float -> ?communities:int -> seed:int -> unit -> t
(** Streaming preferential attachment. Defaults reproduce
    [Social_graph.facebook_scaled]: mean degree 30, communities ≈ n/250,
    locality 0.8. @raise Invalid_argument on nonsensical parameters. *)

val of_tier : tier -> seed:int -> t
(** [generate] at the tier's user count with facebook-shaped defaults. *)

val n_users : t -> int
val n_edges : t -> int
val degree : t -> int -> int
val mean_degree : t -> float
val max_degree : t -> int

val iter_friends : t -> int -> (int -> unit) -> unit
(** Neighbors of a user, ascending, straight out of the CSR row — no
    per-call array. *)

val digest : t -> string
(** FNV-1a (64-bit hex) over the edge stream in generation order — the
    fixed-seed determinism oracle for this generator. *)

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
      {!Social_ops.mix} distribution. Reads of keys not replicated at [dc]
      become remote reads at the key's master. *)

  val ops_issued : t -> int
  val remote_fraction : t -> float
end
