(** GentleRain (Du et al., SoCC '14) — the scalar-metadata baseline.

    Causal consistency with a single scalar: every version carries one
    timestamp; a background stabilization mechanism runs every 5 ms and
    computes the Global Stable Time (GST) from the timestamps received from
    {e every} datacenter (payloads and heartbeats). A remote update becomes
    visible when GST ≥ its timestamp, so the visibility lower bound is the
    latency to the {e furthest} datacenter regardless of the update's
    origin — cheap metadata, poor freshness, and no benefit from partial
    replication. Remote attaches block until GST ≥ the client's dependency
    time. *)

type t

include Common.S with type t := t

val create :
  observer:Stats.Observer.t -> Sim.Engine.t -> Saturn.Fabric.params -> Saturn.Fabric.hooks -> t

