(** Point-to-point FIFO network link.

    Links model the two transports the paper relies on:
    - the bulk-data transfer service between datacenters, and
    - the FIFO channels connecting serializers and datacenters
      (FIFO order is what makes the tree dissemination causal).

    Delivery time is [now + latency], but never before a previously sent
    message: FIFO holds even when {!set_latency} lowers the latency while
    messages are in flight. A link can be cut and restored to model partitions; messages in
    flight when the link is cut are dropped, messages sent while the link is
    down are dropped.

    A link is split in two. The {e wire} ({!t}) is what faults act on: its
    latency, its up/down state and its counters. Fault registries, the
    injector and the series gauges hold wires. The {e channel}
    (['m chan]) is the wire's one typed endpoint: its handler is fixed
    when it is made, and {!send} takes the message value itself, not a
    closure. In-flight messages wait in the channel's ring, so a send on a
    warmed channel and its delivery allocate nothing. *)

type t
(** A wire. *)

type 'm chan
(** The typed channel of a wire, carrying messages of type ['m]. *)

val create : Engine.t -> latency:Time.t -> unit -> t
(** A wire of the given one-way latency, up. *)

val chan : t -> ('m -> unit) -> 'm chan
(** [chan wire deliver] makes the wire's channel; [deliver] runs on every
    message that comes out of the far end.
    @raise Invalid_argument if the wire already has its channel. *)

val send : 'm chan -> size_bytes:int -> 'm -> unit
(** Hands [msg] to the channel's handler on the receiving side after the
    link latency; [size_bytes], 0 for a metadata-sized message, goes to
    the probe and does not change the delay. The size
    is a required argument, not an optional one: an optional argument
    passed across modules costs a [Some] block per call when cross-module
    inlining is off (dune's default dev profile builds with [-opaque]),
    and a send must allocate nothing.
    Messages that share an arrival instant are delivered by a single
    engine event (batched), in send order; a handler that sends back at
    the same instant opens a fresh batch, a later event. Cut/epoch checks
    still happen per message at delivery time, so batching is invisible to
    fault semantics. *)

val set_latency : t -> Time.t -> unit
(** Changes the latency for subsequent messages (used by the
    latency-variability experiment, Fig. 6, and latency-spike faults). *)

val latency : t -> Time.t

val cut : t -> unit
(** Take the link down: in-flight and future messages are dropped.
    Idempotent, but each call bumps the epoch, so anything still in flight
    is invalidated again. *)

val restore : t -> unit
(** Bring the link back up. Messages sent after the restore are delivered
    normally; messages lost during the outage stay lost (reliability is the
    sender's job — see [Reliable_fifo]). A cut/restore round trip therefore
    only affects traffic that overlapped the outage. Idempotent. *)

val is_up : t -> bool

val delivered_count : t -> int

val dropped_count : t -> int
(** Total losses: [dropped_down_count + dropped_cut_count]. *)

val dropped_down_count : t -> int
(** Messages sent while the link was down. *)

val dropped_cut_count : t -> int
(** Messages that were in flight when the link was cut. *)

val in_flight_count : t -> int
(** Messages sent but neither delivered nor dropped yet — the queue depth
    of the wire at the current simulated instant. *)
