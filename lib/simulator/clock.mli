(** Simulated physical clock with a skew.

    The paper's gears use NTP-synchronized physical clocks to generate
    monotonically increasing label timestamps. We model each datacenter's
    clock as [true_time + offset]: the offset starts at zero, the
    "negligible after NTP sync" the paper observes, and {!bump} steps it.
    Reads are forced monotonic, exactly like a real gear's clock
    discipline. *)

type t

val create : Engine.t -> t
(** A clock with zero skew. *)

val read : t -> Time.t
(** Current clock value. Guaranteed strictly monotonic across calls: two
    successive reads never return the same value, mirroring gears that must
    emit unique, increasing timestamps. *)

val peek : t -> Time.t
(** Clock value without the monotonic-bump side effect. *)

val bump : t -> Time.t -> unit
(** Adds to the offset — a step change in skew, as a bad NTP adjustment
    would produce. A bump before the first read skews the clock from the
    start. A negative bump never makes reads go backwards: the monotonic
    discipline in {!read} absorbs it. *)
