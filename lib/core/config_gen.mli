(** Configuration generator (§5.5, Algorithm 3).

    Enumerates isomorphism classes of full binary trees over the datacenter
    leaves by iterative leaf insertion, ranking candidates with the solver
    and pruning with the paper's threshold rule to avoid combinatorial
    explosion (nine datacenters would otherwise yield 2,027,025 trees). The
    final tree is solved exactly (placement + delays) and adjacent
    serializers that ended up co-located with zero delay are fused. *)

type btree = Leaf of int | Node of btree * btree

val leaves : btree -> int list
val count_nodes : btree -> int

val insertions : btree -> dc:int -> btree list
(** All 2f−1 isomorphism classes obtained by hanging leaf [dc] off each
    edge of a tree with f leaves (including the new-root case). *)

val to_tree : btree -> n_dcs:int -> Tree.t
(** Internal nodes become serializers; each leaf datacenter attaches to its
    parent serializer. @raise Invalid_argument on a bare leaf. *)

val fuse : Config.t -> Config.t
(** Contracts every serializer edge whose endpoints share a site and have
    zero artificial delay between them (shape change only; same behaviour). *)

val find_configuration : ?seed:int -> Config_solver.problem -> Config.t * float
(** Runs Algorithm 3, inserting datacenters in id order, and returns the
    best configuration found with its Weighted-Minimal-Mismatch objective
    (weighted ms). FILTER cuts at the first ranking gap wider than 25.0
    and keeps at most 10 trees per iteration. *)

val find_configurations :
  ?seed:int ->
  top:int ->
  Config_solver.problem ->
  (Config.t * float) list
(** Like {!find_configuration} but returns up to [top] distinct
    configurations, best first. The paper's §6.2 suggests pre-computing
    backup trees to speed up reconfiguration after a connectivity failure:
    the runners-up here are exactly those backups. *)
