(** Deterministic pseudo-random number generator (splitmix64).

    The simulator never uses the global [Random] state: every stochastic
    component owns an [Rng.t] derived from the experiment seed, so a run is
    reproducible bit-for-bit from its seed. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new independent generator derived from [t]; advances [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: one draw, true with probability
    [p]. Unlike comparing {!float}'s result, it boxes no float. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
