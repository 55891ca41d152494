(** Fixed-bucket histogram for cheap, bounded-memory aggregation.

    Used where a run produces millions of observations (per-op visibility
    latencies) and keeping every value would dominate memory. Buckets are
    linear between [lo] and [hi]; values outside the range land in the
    overflow/underflow buckets but still count toward the mean. *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** @raise Invalid_argument if [hi <= lo] or [buckets < 1]. *)

val add : t -> float -> unit

val add_int : t -> int -> unit
(** [add_int t n] is [add t (float_of_int n)], allocating nothing. *)

val count : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** Approximate percentile: midpoint of the bucket containing the rank.
    @raise Invalid_argument on an empty histogram. *)

val merge : t -> t -> t
(** Pointwise sum; both histograms must share the same geometry.
    [merge] allocates a fresh histogram: neither input aliases the result.
    @raise Invalid_argument otherwise. *)

val underflow : t -> int
val overflow : t -> int
