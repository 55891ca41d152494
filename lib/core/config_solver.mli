(** Placement-and-delay optimizer for a fixed tree shape.

    Plays the role of the OscaR constraint solver in the paper's
    configuration pipeline: given a tree over the datacenters, choose (a) a
    geographic site for every serializer from the candidate set W and (b)
    non-negative artificial delays δ per directed hop, minimizing the
    Weighted Minimal Mismatch objective.

    The objective is convex piecewise-linear in the delays, so for a fixed
    placement we run exact coordinate descent (each coordinate minimized by
    a weighted median). Placement is optimized by coordinate descent with
    random restarts, seeded deterministically.

    Each (problem, tree) is compiled once: the weighted pairs in
    {!Mismatch.fold_pairs} order, each pair's serializer path and the
    {!Tree.n_hops} numbers of its hops, the pairs crossing each hop, and
    site-latency matrices in µs and ms. The lower bound, the objective and
    the delay descent walk those arrays with δ in a float array, so scoring
    a placement allocates nothing. *)

type problem = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;  (** geographic site of each datacenter *)
  candidates : Sim.Topology.site array;  (** W: allowed serializer locations *)
  crit : Mismatch.t;
}

val default_candidates : dc_sites:Sim.Topology.site array -> Sim.Topology.site array
(** Each datacenter is a natural potential serializer location (§5.4). *)

val optimize_delays : problem -> Config.t -> float
(** Sets the config's artificial delays to a minimizer for its placement.
    Returns the resulting objective value. *)

val optimize_placement :
  ?fast:bool -> ?restarts:int -> rng:Sim.Rng.t -> problem -> Tree.t -> Config.t * float
(** Full solve for one tree shape. [fast] ranks candidate placements with
    the cheap lower bound (used while enumerating many trees); the returned
    config always has fully optimized delays and the returned float is the
    true objective. Default [restarts] is 3. *)

val solve : ?restarts:int -> seed:int -> problem -> Tree.t -> Config.t * float
(** Convenience wrapper: deterministic full solve. *)

val solve_exact : ?max_enum:int -> problem -> Tree.t -> Config.t * float
(** Exhaustive placement enumeration (the constraint-solver role played by
    OscaR in the paper for one tree): every assignment of serializers to
    candidate sites is tried, each with exact-coordinate-descent delays.
    @raise Invalid_argument when the enumeration would exceed [max_enum]
    placements (default 200,000). *)
