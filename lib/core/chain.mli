(** Chain replication of a serializer (§6.1).

    A logical serializer is a chain of replicas at one site. Messages enter
    at the head, are stored and forwarded replica-to-replica over intra-site
    links, and commit at the tail, which is when the group output fires and
    the external sender is acknowledged. The prefix property of chain
    replication (every replica stores a superset of its successors) makes
    fail-stop crashes of any replica recoverable with no loss, duplication
    or reordering: on a crash the chain heals, the predecessor re-syncs its
    new successor, and unacknowledged external messages are retransmitted
    and deduplicated by origin key.

    With [replicas = 1] (the common experimental setup) the chain degrades
    to a plain process with one intra-site hop worth of latency removed.

    The per-message path allocates nothing once the chain's tables have
    grown to their peak: stores, origin keys and pending confirms are held
    per sequence number in {!Sim.Seq_ring}s, a {!Sim.Flat_table} indexes
    the origin keys, and forwards and commit acks ride
    {!Sim.Delay_line}s. *)

type 'msg t

val create :
  Sim.Engine.t ->
  replicas:int ->
  intra_latency:Sim.Time.t ->
  deliver:('msg -> unit) ->
  confirm:(peer:int -> seq:int -> unit) ->
  unit ->
  'msg t
(** [deliver] fires exactly once per committed message, in commit order.
    [confirm ~peer ~seq] acknowledges a committed message to its external
    sender, named by the token {!input} was given.
    @raise Invalid_argument when [replicas < 1]. *)

val input : 'msg t -> origin:int -> oseq:int -> 'msg -> peer:int -> seq:int -> unit
(** Hands a message to the current head. [origin] and [oseq] identify the
    message at its origin so that retransmissions after a head crash are
    not committed twice. [peer] (non-negative) and [seq] are its confirm
    token: [confirm ~peer ~seq] fires at commit, after the commit ack has
    travelled back up the chain, or at once for a retransmission of a
    message already committed. A retransmission of a message not yet
    committed replaces its pending token. *)

val set_on_head_change : 'msg t -> (unit -> unit) -> unit
(** Invoked after a head crash heals the chain. Sequence numbers the dead
    head assigned to unreplicated messages are gone, so the service uses
    this hook to replay delivered-but-unconfirmed channel messages into the
    new head (deduplicated by origin key). *)

val crash_replica : 'msg t -> int -> unit
(** Fail-stop crash of replica [i] (0-based original index). The chain
    heals immediately — fail-stop detection is assumed instantaneous, as in
    the paper's fault model. @raise Invalid_argument if already crashed or
    out of range. *)

val alive_replicas : 'msg t -> int
val committed : 'msg t -> int
val is_down : 'msg t -> bool
(** True when every replica has crashed. *)
