(** Named metric registry: counters and pull gauges that subsystems
    register into, replacing ad-hoc [mutable count] fields scattered through
    the engine, the Saturn core and the harness. Distributions are not
    registry metrics: a run that needs one holds a {!Hdr.t} (or a windowed
    {!Series} histogram) itself.

    Metrics are keyed by dotted names ([proxy.dc0.applied_updates],
    [service.labels_input], …). Counter lookups are get-or-create, so
    independent components that agree on a name share (and jointly
    increment) one counter; components that must stay distinguishable
    scope their names. Registering the same name with two different kinds
    raises.

    Pull gauges ([register_pull]) sample a closure at snapshot time — the
    bridge for values owned by layers the registry cannot depend on, such
    as [Sim.Engine.events_processed]. *)

type t

val create : unit -> t

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get-or-create. @raise Invalid_argument if the name holds a pull gauge. *)

val incr : counter -> unit

val incr_by : counter -> int -> unit
(** Adds [n]; a required argument, since an optional one passed at a call
    allocates its [Some]. *)

val counter_value : counter -> int
val counter_name : counter -> string

(** {2 Pull gauges} *)

val register_pull : t -> string -> (unit -> float) -> unit
(** Registers a gauge whose value is sampled on demand.
    @raise Invalid_argument if the name is already registered. *)

(** {2 Reading} *)

type value =
  | Counter of int
  | Gauge of float  (** a pull gauge, sampled when read *)

val find : t -> string -> value option
val snapshot : t -> (string * value) list
(** Every metric, name-sorted; pull gauges are sampled now. *)

val sum_counters : t -> prefix:string -> int
(** Sum of every counter whose name starts with [prefix] — aggregates
    per-datacenter scoped counters ([proxy.dc*...]) into one figure. *)

val print : ?title:string -> t -> unit
