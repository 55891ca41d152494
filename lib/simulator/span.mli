(** Terse span-emission helpers over {!Probe}.

    Instrumentation sites guard with {!Probe.active} and then call
    {!begin_} / {!end_} with the same key fields; the probe pairs them
    structurally and accrues the simulated-time difference to the kind's
    total. See {!Probe.span} for the keying conventions. Both are typed
    emitters: the key fields go into the probe's flyweight view as
    unboxed ints, and no [Probe.span] record or event is built. Every key
    field is a required label: sites pass [-1] for an unused [aux],
    [site] or [peer], and [0] for [epoch] where not both ends know it.
    Optional arguments would allocate a [Some] per non-constant value
    under separate compilation. Spans are a quarter of a faulted run's
    probe events (25.2 % on the seed-42 fault matrix) and, when each was
    a boxed event around a [span] record, about two thirds of the words
    those events cost (133 of 209 words per op). *)

type kind = Probe.span_kind =
  | Sk_sink_hold
  | Sk_attach
  | Sk_chain
  | Sk_delay_hop
  | Sk_hop
  | Sk_delay_egress
  | Sk_egress
  | Sk_proxy_order
  | Sk_bulk
  | Sk_stab

val begin_ :
  at:Time.t -> aux:int -> site:int -> peer:int -> epoch:int -> kind -> origin:int -> seq:int ->
  unit

val end_ :
  at:Time.t -> aux:int -> site:int -> peer:int -> epoch:int -> kind -> origin:int -> seq:int ->
  unit
(** Begin and end must pass the same [aux], [site], [peer] and [epoch] or
    the span will not pair. Only sites where both ends know the
    configuration epoch (the tree-side spans, emitted inside one service
    instance) pass a nonzero [epoch]. *)
