(** HDR-style log-bucketed histogram over non-negative integers: the one
    bucketed distribution in [Stats] (smoke visibility, blame gaps, the
    windowed {!Series} histograms, host-span durations).

    Linear buckets trade resolution for a fixed geometry (25 ms buckets
    report every median between 50 and 75 ms as 62.5 ms, and saturate the
    moment a run's tail crosses their range); an [Hdr.t] keeps a
    {e constant relative} error everywhere: each power-of-two
    octave is split into [2^sub_bits] sub-buckets, so a recorded value is
    off from its bucket's representative by at most [2^-sub_bits] of
    itself. Values up to 32 µs land in exact unit buckets; a 40 ms hop and
    a 400 µs chain commit are resolved equally well — the property the
    tail-latency blame tables need at the million-user scale tier, where
    visibility latencies span four orders of magnitude.

    Everything is integer arithmetic on a flat array: recording, merging
    and percentile reads are deterministic bit-for-bit, so Hdr-derived
    numbers can sit behind CI digest gates like every other statistic.
    Values are unit-agnostic ints (callers use simulated microseconds);
    negative inputs are counted in {!negatives} and excluded from the
    distribution rather than clamped silently. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 7) sets the per-octave resolution: [2^sub_bits]
    sub-buckets, hence a worst-case relative error of [2^-sub_bits]
    (< 0.8 % at the default). Memory is one int array of roughly
    [2^sub_bits * 57] slots, independent of the value range.
    @raise Invalid_argument if [sub_bits] is outside [0, 16]. *)

val add : t -> int -> unit
val count : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** Representative value (bucket midpoint; exact below [2^sub_bits]) of
    the bucket containing the rank, with log geometry. The top rank reports the exact recorded maximum.
    @raise Invalid_argument on an empty histogram or [p] outside [0,100]. *)

val max_value : t -> int
(** Exact largest value recorded; 0 when empty. *)

val min_value : t -> int
(** Exact smallest non-negative value recorded; 0 when empty. *)

val negatives : t -> int
(** Inputs below zero: counted here, excluded from the distribution. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram; both inputs must share
    [sub_bits]. @raise Invalid_argument otherwise. *)

val reset : t -> unit
(** Zero every bucket and statistic while keeping the geometry, so a hot
    path (the per-window accumulators in {!Series}) can reuse one
    allocation per window instead of reallocating. *)
