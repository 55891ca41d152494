(** Okapi (Didona, Spirovska & Zwaenepoel, 2017) — hybrid vector/scalar
    stable time: causal geo-replication made faster, cheaper and more
    available than Cure.

    Updates carry a scalar hybrid timestamp (physical + logical + origin +
    a dependency cut) instead of Cure's O(N) dependency vector, so the
    attached metadata is a small constant. Stabilization is global rather
    than pairwise: each DC keeps an N×N matrix of known timestamps
    ([known.(i).(k)] = what DC [i] has received from DC [k], learned from
    periodic row broadcasts), and the {e universal stable time} (UST) is
    the minimum over the whole matrix — the time below which {e every} DC
    has received {e everything}. A remote update is installed when
    UST ≥ its timestamp; because stability is universal, any DC can fail
    over to any other without losing causal cuts (the availability claim),
    at the price of visibility latency that waits on the slowest pair of
    DCs. No heartbeats: the row broadcasts carry the liveness floors. *)

type t

include Common.S with type t := t

val create :
  ?series:Stats.Series.t -> ?meta:Stats.Meta_bytes.t -> Sim.Engine.t -> Common.params ->
  Common.hooks -> t

