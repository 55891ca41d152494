(** Named metric registry: counters, gauges and histograms that subsystems
    register into, replacing ad-hoc [mutable count] fields scattered through
    the engine, the Saturn core and the harness.

    Metrics are keyed by dotted names ([proxy.dc0.applied_updates],
    [service.labels_input], …). Lookups are get-or-create, so independent
    components that agree on a name share (and jointly increment) one
    metric; components that must stay distinguishable scope their names.
    Registering the same name with two different kinds raises.

    Pull gauges ([register_pull]) sample a closure at snapshot time — the
    bridge for values owned by layers the registry cannot depend on, such
    as [Sim.Engine.events_processed]. *)

type t

val create : unit -> t

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get-or-create. @raise Invalid_argument if the name holds another kind. *)

val incr : counter -> unit

val incr_by : counter -> int -> unit
(** Adds [n]; a required argument, since an optional one passed at a call
    allocates its [Some]. *)

val counter_value : counter -> int
val counter_name : counter -> string

(** {3 Interned counter ids}

    For per-op paths that index counters dynamically (by op kind, by dc) and
    cannot hold one [counter] handle per site, [intern] maps a name to a
    dense integer id once, and [incr_id] bumps a flat array slot — no string
    hashing on the hot path. Ids share the counter namespace: an interned
    name and [counter] on the same name hit the same metric. *)

val intern : t -> string -> int
(** Get-or-create the dense id for counter [name].
    @raise Invalid_argument if the name holds a non-counter metric. *)

val incr_id : t -> int -> unit

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

val register_pull : t -> string -> (unit -> float) -> unit
(** Registers a gauge whose value is sampled on demand.
    @raise Invalid_argument if the name is already registered. *)

(** {2 Histograms} *)

val histogram : t -> string -> lo:float -> hi:float -> buckets:int -> Histogram.t
(** Get-or-create; the geometry arguments only apply on creation. *)

(** {2 Reading} *)

type value = Counter of int | Gauge of float | Hist of Histogram.t

val find : t -> string -> value option
val snapshot : t -> (string * value) list
(** Every metric, name-sorted; pull gauges are sampled now. *)

val sum_counters : t -> prefix:string -> int
(** Sum of every counter whose name starts with [prefix] — aggregates
    per-datacenter scoped counters ([proxy.dc*...]) into one figure. *)

val print : ?title:string -> t -> unit
