(** Growable sample container for latency/throughput observations.

    Observations are stored as floats (milliseconds for latencies,
    ops/second for rates). Percentile queries sort lazily and cache the
    sorted array until the next insertion; the sort is {!sort_floats}, so
    a query allocates the sorted copy and nothing per element. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_time : t -> Sim.Time.t -> unit
(** Records a simulated duration in milliseconds, as {!add_us} does. *)

val add_us : t -> int -> unit
(** [add_us t us] records [us] microseconds in milliseconds, bit for bit
    [add t (Sim.Time.to_ms_float (Sim.Time.of_us us))], allocating
    nothing once the sample's array has grown. *)

val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** 0 on an empty sample. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]; linear interpolation between
    ranks. @raise Invalid_argument on an empty sample or out-of-range p. *)

val sort_floats : float array -> unit
(** Sorts in place into [Float.compare] order, as
    [Array.sort Float.compare] does, without boxing an element. *)
