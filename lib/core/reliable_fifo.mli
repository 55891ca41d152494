(** Reliable in-order delivery over lossy {!Sim.Link}s.

    The serializer tree needs FIFO channels that survive link cuts and
    serializer-replica crashes without losing or reordering labels — losing
    a label would silently break causal delivery downstream. This module
    implements the standard sequence-number / cumulative-ack / retransmit
    scheme. A sender can be re-pointed at a different receiver over fresh
    wires and will retransmit everything unacknowledged.

    The channel runs over the wires' typed {!Sim.Link.chan}s: the data
    channel carries the retransmission entry itself and the ack channel
    the acked sequence number, and both handlers are made once, at
    {!connect}. The unacknowledged backlog is a {!Sim.Ring}. So in steady
    state a message costs its entry and nothing per hop or per ack; an
    in-order arrival with nothing buffered skips the out-of-order
    table. *)

type 'msg sender
type 'msg receiver

val receiver : Sim.Engine.t -> deliver:('msg -> unit) -> 'msg receiver
(** Delivers messages in sequence order exactly once. Out-of-order arrivals
    (possible only across reconnects) are buffered. *)

val receiver_deferred :
  Sim.Engine.t -> deliver:('msg -> peer:int -> seq:int -> unit) -> 'msg receiver
(** Like {!receiver}, but a message is only acknowledged to the sender once
    the consumer calls {!confirm} with the [peer] (the sender's id) and
    [seq] it was delivered with. A chain-replicated serializer confirms at
    chain commit, so a head crash between delivery and replication makes
    the sender retransmit instead of losing the label. Each confirmation
    of a delivered-but-unconfirmed message acknowledges the next prefix
    position, so confirms must be issued in delivery order per sender.
    Delivered-but-unconfirmed messages are held per sender in a
    {!Sim.Seq_ring}, so deliver and confirm allocate nothing once it has
    grown. *)

val confirm : 'msg receiver -> peer:int -> seq:int -> unit
(** Confirms the message [peer] sent as [seq]; a no-op when it is not
    delivered-but-unconfirmed (already confirmed, or confirmed again by a
    replay). @raise Invalid_argument when no message from [peer] has
    arrived. *)

val sender : Sim.Engine.t -> resend_period:Sim.Time.t -> 'msg sender
(** Unacknowledged messages are retransmitted every [resend_period]. *)

val connect : 'msg sender -> data:Sim.Link.t -> ack:Sim.Link.t -> 'msg receiver -> unit
(** Routes the sender's traffic to [receiver] over the [data] and [ack]
    wires, making their channels; immediately retransmits any
    unacknowledged backlog. May be called again with fresh wires to
    re-target; messages still in flight on the old wires reach the old
    receiver. @raise Invalid_argument when a wire already has its channel
    (a wire carries one channel, so wires cannot be reused). *)

val send : 'msg sender -> size_bytes:int -> 'msg -> unit
(** Queues and transmits; [size_bytes] is the message's wire size. @raise Invalid_argument before the first
    {!connect}. *)

val sender_id : 'msg sender -> int
(** The engine-scoped id a deferred receiver passes its consumer as
    [peer]. *)

val unacked : 'msg sender -> int
val delivered : 'msg receiver -> int

val redeliver_unconfirmed : 'msg receiver -> deliver:('msg -> peer:int -> seq:int -> unit) -> unit
(** Replays every delivered-but-unconfirmed message (deferred receivers
    only), in (sender id, sequence) order. Used when the consumer — a
    chain-replicated serializer — lost unreplicated state in a head crash:
    the replayed messages are re-ingested and deduplicated downstream. *)

val stop : 'msg sender -> unit
(** Cancels the retransmission timer (end of experiment teardown). *)
