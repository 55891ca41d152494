(** Chrome trace-event (catapult) JSON export.

    Renders a kept probe trace as a [{"traceEvents":[...]}] document that
    Perfetto ([ui.perfetto.dev]) and [chrome://tracing] open directly:
    matched {!Sim.Probe.span}s become complete ("X") slices and key point
    events become instant marks. Tracks are grouped into two processes —
    pid 1 "datacenters" with one thread per site ([dc0], [dc1], …) and
    pid 2 "serializers" with one thread per serializer ([ser0], …) — so a
    label's life reads left to right across sink hold, chain, hops and
    the destination proxy. One replay of the kept views collects both:
    slices from {!Journey.pair_spans}, in end order, and the instant
    marks. Output is deterministic for a deterministic trace. *)

val write : Sim.Probe.t -> out_channel -> unit
(** @raise Invalid_argument if the probe was created with [~keep:false]. *)
