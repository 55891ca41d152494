(** The Weighted Minimal Mismatch objective (§5.4, Definition 2).

    For each ordered pair of datacenters (i, j) that share data, the optimal
    label propagation latency equals the bulk-data transfer latency β(i, j):
    delivering a label earlier creates premature false dependencies,
    delivering it later sacrifices freshness. A configuration's quality is
    the weighted sum over pairs of |λ(i, j) − β(i, j)| where λ is the
    metadata-path latency through the serializer tree. [Config_solver]
    evaluates the sum over its compiled form of a tree. *)

type t = {
  n_dcs : int;
  weight : int -> int -> float;  (** c(i, j); pairs with weight 0 are ignored *)
  bulk : int -> int -> Sim.Time.t;  (** β(i, j), the bulk-data latency *)
}

val uniform : n_dcs:int -> bulk:(int -> int -> Sim.Time.t) -> t
(** Every ordered pair weighs 1. *)

val of_replica_map : Kvstore.Replica_map.t -> bulk:(int -> int -> Sim.Time.t) -> t
(** c(i, j) = number of keys replicated at both i and j (the workload-derived
    correlation weights of §5.4); pairs sharing nothing are ignored. *)

val fold_pairs : t -> ('a -> int -> int -> float -> 'a) -> 'a -> 'a
(** Folds over the ordered pairs (i, j), i ≠ j, with weight c(i, j) > 0, in
    row-major order, passing c(i, j). *)
