(** Cure (Akkoorath et al., ICDCS '16) — the vector-metadata baseline.

    Causal consistency with a vector clock carrying one entry per
    datacenter. A remote update from datacenter [k] becomes visible once the
    Global Stable Vector dominates its dependency vector on every entry
    other than [k], so the visibility lower bound is the direct latency from
    the originator — fresh data, but every operation pays O(N) metadata
    work and the stabilization rounds handle vectors too, which is what
    costs Cure its throughput. *)

type t

include Common.S with type t := t

val create :
  ?series:Stats.Series.t -> ?meta:Stats.Meta_bytes.t -> Sim.Engine.t -> Common.params ->
  Common.hooks -> t

