(** Invariant checker for faulted runs.

    A streaming fold over the probe event stream: {!create} a checker,
    feed it every event with {!step} — typically by handing [step c] to
    {!Sim.Probe.subscribe} before the run, so it checks events as they
    are recorded and needs no kept trace — and read the verdict with
    {!report}. {!analyze} runs the same fold after the run, over a kept
    trace. Either way it asserts what fault injection must never break:

    - {b Exactly-once, FIFO per origin}: at every serializer, the
      per-origin sequence numbers of committed labels ([Ser_commit]) are
      strictly increasing — no duplicate commits (chain dedup works under
      head crashes and retransmission), no reordering (FIFO channels and
      arrival-order relay hold). Gaps are legal: partial replication
      routes each label only toward interested subtrees.
    - {b Sink order}: each datacenter's label sink emits in non-decreasing
      timestamp order ([Sink_emit]) — fault handling never un-serializes
      the local serialization.
    - {b Proxy FIFO}: remote updates from one origin are applied at each
      datacenter in strictly increasing timestamp order ([Proxy_apply]),
      whichever path (stream or fallback) ordered them.

    The invariants hold {e across} an online reconfiguration (§6.2):
    exactly-once/FIFO is keyed per tree epoch (epoch-2 serializer ids and
    per-origin uid counters restart at 0), and the migration window adds
    its own checks —

    - {b Route monotonicity}: once an origin's sink routes into the new
      tree, none of its labels re-enter an older one ([Label_forward]
      epochs are non-decreasing per origin).
    - {b Marker last}: the epoch-change marker (identified by
      [Saturn.Label.marker_gear]) is the last label its origin pushed
      through the old tree — no old-epoch forward or commit carries a
      per-origin seq above the marker's, and no origin emits two markers.
    - {b No duplicate apply}: a label is installed at most once per
      datacenter, whichever tree (or the fallback) raced to order it.

    Violations carry the event's time and a description; a clean faulted
    run reports none. The report also folds the stream into the fault
    counters the bench prints (retransmissions, drops by reason, head
    changes, fallback activations, reconfiguration switches). *)

type violation = { at : Sim.Time.t; what : string }

type report = {
  violations : violation list;  (** emission order *)
  commits : int;  (** [Ser_commit] events *)
  resends : int;  (** [Fifo_resend] events *)
  drops_cut : int;  (** messages lost in flight at a cut *)
  drops_down : int;  (** messages sent into a down link *)
  head_changes : int;
  fallback_activations : int;  (** proxy switches into fallback mode *)
  switches : int;  (** [Switch_begin] events — online reconfigurations *)
}

type t
(** A checker's running state: the per-key last-seen sequence numbers and
    timestamps, the counters, and the violations so far. *)

val create : unit -> t

val step : t -> Sim.Time.t -> Sim.Probe.event -> unit
(** Folds one event in. Events must arrive in emission order. *)

val report : t -> report
(** The verdict over every event stepped so far. The checker stays
    usable: more steps and another [report] may follow. *)

val analyze : Sim.Probe.t -> report
(** [create], [step] over every kept event ({!Sim.Probe.iter}), [report]:
    the post-run form of the same fold.
    @raise Invalid_argument if the probe was created with [~keep:false]
    (there is no stream to check). *)

val ok : report -> bool
(** No violations. *)

val pp : Format.formatter -> report -> unit
