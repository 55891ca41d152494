(** Measurement collection: remote-update visibility latency and windowed
    throughput, matching the paper's methodology (§7: origin apply time vs
    destination visibility time; first and last part of each run ignored). *)

type t

val create :
  ?bulk_factor:float ->
  ?registry:Stats.Registry.t ->
  Sim.Engine.t ->
  topo:Sim.Topology.t ->
  dc_sites:Sim.Topology.site array ->
  t
(** [bulk_factor] scales the optimal (bulk) latency used for the
    extra-visibility computation; default 1.0. [registry], when given,
    receives the windowed visibility counter as
    [metrics.visible_in_window]. *)

val set_window : t -> start_at:Sim.Time.t -> end_at:Sim.Time.t -> unit
(** Only observations inside the window are recorded. *)

val in_window : t -> bool

val on_visible :
  t -> dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit
(** Hook to plug into a system's visibility callback. Records the raw
    visibility latency and the extra latency over the bulk ("optimal")
    latency for the (origin, destination) pair. *)

val visibility : t -> Stats.Sample.t
(** Raw remote-update visibility latencies, milliseconds. *)

val extra_visibility : t -> Stats.Sample.t
(** Visibility minus optimal (bulk) latency, milliseconds. *)

val pair_visibility : t -> origin:int -> dest:int -> Stats.Sample.t
(** Per-pair raw visibility latencies (for the CDF figures).
    @raise Invalid_argument for a datacenter outside [dc_sites]. *)

val visible_count : t -> int

val subscribe :
  t -> (dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit) -> unit
(** Adds an observer invoked on every visibility event, regardless of the
    measurement window (used by the consistency-oracle tests). *)
