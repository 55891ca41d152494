(** Per-operation causal-metadata byte accounting.

    Every stabilization protocol pays for causality in wire bytes somewhere:
    attached to each replicated update (Saturn labels, GentleRain/Eunomia
    scalars, Okapi hybrid timestamps, Cure vectors, Orbe matrices, COPS
    dependency lists), in dedicated stabilization traffic (sequencer
    announcements, stable-vector broadcasts), or in liveness heartbeats.
    [Meta_bytes] splits those three cost centres into counters named

      [meta.bytes.<system>.attached]
      [meta.bytes.<system>.stabilization]
      [meta.bytes.<system>.heartbeat]

    The split matters because the three grow differently: attached bytes scale with
    operation rate and metadata width, stabilization and heartbeat bytes
    scale with topology and period but not with load.

    Accounting conventions (shared across every system so the 7-way
    comparison is apples-to-apples):
    - only causal metadata counts — the (ts, origin) versioning header that
      even the eventual baseline ships for last-writer-wins convergence is
      storage versioning, not causality, and is excluded everywhere;
    - attached bytes are wire bytes, counted once per remote shipment
      (an update replicated to [f] remote DCs with [w] metadata bytes
      records [f * w]);
    - Saturn's metadata tree is itself the stabilization mechanism; its
      cost is modelled as latency (tree hops) rather than per-update bytes
      beyond the constant label, so its stabilization counter stays 0 by
      construction. *)

type t

val create : Registry.t -> system:string -> t
(** Registers the three counters under [meta.bytes.<system>.*].
    Get-or-create: two systems sharing a registry and a name share the
    counters. *)

val record_op : t -> bytes:int -> fanout:int -> unit
(** One update shipped [bytes] of attached metadata to each of [fanout]
    remote destinations: adds [bytes * fanout] to the attached counter.
    [fanout = 0] (a key replicated nowhere remote) adds nothing. Allocates
    nothing. *)

val record_stabilization : t -> bytes:int -> unit
(** One stabilization message (sequencer announcement, stable-vector or
    matrix-row broadcast) of [bytes] on the wire. *)

val record_heartbeat : t -> bytes:int -> unit
(** One liveness/floor heartbeat of [bytes] on the wire. *)

val attached_bytes : t -> int

val total_bytes : t -> int
(** [attached + stabilization + heartbeat]. *)
