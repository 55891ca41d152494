(** Closed-loop load driver — the Basho Bench role (§7.1).

    Clients are co-located with their preferred datacenter and eagerly send
    requests with zero think time. Each run has a warm-up, a measurement
    window and a cool-down; only the window counts, mirroring the paper
    ("the first and the last minute of each experiment are ignored"). *)

type result = {
  throughput : float;  (** completed ops per simulated second, in-window *)
  ops_completed : int;  (** in-window *)
  duration : Sim.Time.t;  (** measurement window length *)
}

val run :
  Sim.Engine.t ->
  Api.t ->
  Metrics.t ->
  clients:Client.t list ->
  next_op:(Client.t -> Workload.Op.t) ->
  warmup:Sim.Time.t ->
  measure:Sim.Time.t ->
  cooldown:Sim.Time.t ->
  result
(** Drives every client in a closed loop: attach at the preferred
    datacenter, then issue operations back-to-back. A [Remote_read]
    migrates to the target, reads, and migrates home — one logical
    operation. Runs the engine to completion of the cool-down. *)

val make_clients :
  dc_sites:Sim.Topology.site array -> per_dc:int -> Client.t list

val synthetic :
  Sim.Engine.t ->
  Api.t ->
  Metrics.t ->
  Build.spec ->
  seed:int ->
  per_dc:int ->
  cooldown:Sim.Time.t ->
  result
(** The three-site recipe's run ({!Build.three_site}): {!make_clients}
    over the spec's datacenters, each drawing the 50%-read
    {!Workload.Synthetic} mix ([seed]) over every key of [spec.rmap], a
    200 ms warm-up and a 1 s measurement window, then [cooldown]. *)
