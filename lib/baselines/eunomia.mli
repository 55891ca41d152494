(** Eunomia (Gunawardhana, Bravo & Rodrigues, ATC '17) — unobtrusive
    deferred update stabilization.

    Same scalar metadata as GentleRain, different division of labour: each
    datacenter runs an intra-DC {e sequencer} that totally orders the DC's
    local updates off the client path. Storage servers notify the sequencer
    asynchronously after acking the client, so writes pay for one scalar
    only; the sequencer periodically announces its stable timestamp (the
    floor below which no more local updates will be issued) to every remote
    DC. A remote DC installs an update when every {e remote} sequencer's
    announced stable time covers the update's timestamp — stabilization
    work moved entirely onto the sequencer, never onto storage servers or
    the client path.

    The sequencer is a single point of order per DC: [sequencer_crash]
    silences it for a failover window (announcements stop, remote GSTs —
    and hence remote visibility — stall) until the backup takes over,
    mirroring the paper's fault-tolerance discussion. *)

type t

include Common.S with type t := t

val create :
  ?series:Stats.Series.t -> ?meta:Stats.Meta_bytes.t -> Sim.Engine.t -> Common.params ->
  Common.hooks -> t

val sequencer_crash : t -> dc:int -> unit
(** Crash [dc]'s sequencer: announcements (and stabilization rounds) stop
    until a backup takes over after a fixed failover window. Idempotent
    while already down. *)

val sequencer_down : t -> dc:int -> bool
