(** Runtime of Saturn's metadata service: the serializer tree (§5.3).

    Builds, from a {!Config.t}, one chain-replicated serializer per tree
    node and reliable FIFO channels along every tree edge (and between each
    datacenter and its serializer). Labels enter at the origin datacenter's
    serializer and are forwarded hop by hop in arrival order; at each hop a
    label is only propagated toward subtrees that contain an interested
    datacenter — genuine partial replication — and each outgoing hop adds
    the configured artificial delay δ.

    Edge cuts are transparent (retransmission resumes after {!restore_edge});
    serializer crashes stall the affected subtree until the application
    switches trees or falls back to timestamp order, exactly the paper's
    availability story. *)

type t

val create :
  Sim.Engine.t ->
  topo:Sim.Topology.t ->
  config:Config.t ->
  interest:(Label.t -> int) ->
  deliver:(dc:int -> Label.t -> unit) ->
  observer:Stats.Observer.t ->
  ?serializer_replicas:int ->
  ?name:string ->
  ?instance:int ->
  unit ->
  t
(** [interest label] is the bitmask of datacenters that must receive
    [label]: bit [dc] set for each (the origin's bit is cleared
    automatically). {!Kvstore.Replica_map.mask} gives a key's mask. Labels
    carry their remaining targets as such a mask hop by hop, and each
    serializer meets the masks of its local datacenters and of the
    datacenters behind each neighbour, precomputed here; local
    datacenters are visited in ascending id order. Each hop's artificial
    delay δ is read from [config] once, here: later [Config.set_delay]
    calls do not reach a running service. Every δ wait is a
    {!Sim.Delay_line} per hop, so forwarding allocates no closure per
    label. [deliver] is invoked
    at each interested datacenter, in that datacenter's serialization
    order. Replicas of one serializer chain are 300 µs apart.
    [observer]'s registry receives the service's counters under [name]
    (default ["service"]). Its series, when present, gains per-serializer
    [series.ser<k>.ingress] (per-window chain-ingress rate) and
    [series.ser<k>.pending] (unacked backlog on the channels feeding [k])
    plus [series.link.meta.in_flight] (labels on the wire across the whole
    metadata plane). Give a series to one service instance per run only:
    gauge names would collide across epochs.
    Label ingress, serializer hops and artificial-delay waits are traced
    through {!Sim.Probe} when a probe is installed, and every leg of a
    forwarded label's trip (attach, chain, δ-waits, hops, egress) is
    bracketed by {!Sim.Span} begin/end pairs keyed by the label's
    [(origin, oseq)] uid. [instance] (default 0) tags those span keys so
    concurrent service epochs during reconfiguration cannot collide.
    @raise Invalid_argument for a tree with more than 62 datacenters,
    whose masks would not fit an [int]. *)

val input : t -> dc:int -> Label.t -> unit
(** Called by datacenter [dc]'s label sink, in a causality-compliant order. *)

val config : t -> Config.t

val crash_serializer : t -> int -> unit
(** Crashes every remaining replica of serializer [i]. *)

val crash_replica : t -> serializer:int -> replica:int -> unit
val serializer_down : t -> int -> bool

val cut_edge : t -> int -> int -> unit
(** Cuts both directions of the serializer edge (transient partition). *)

val restore_edge : t -> int -> int -> unit

val labels_input : t -> int
val labels_delivered : t -> int

(** {2 Fault-injection surface}

    Enumerations a fault registry uses to bind the service's links and
    serializers under stable names; handles stay valid for the service's
    lifetime. *)

val n_serializers : t -> int

val edge_link_list : t -> ((int * int) * (Sim.Link.t * Sim.Link.t)) list
(** Every directed serializer edge [(a, b)] with its (data, ack) links,
    sorted by edge for deterministic iteration. *)

type attach_links = {
  in_data : Sim.Link.t;  (** sink → serializer label channel *)
  in_ack : Sim.Link.t;
  out_data : Sim.Link.t;  (** serializer → remote-proxy delivery channel *)
  out_ack : Sim.Link.t;
}

val attach_links : t -> dc:int -> attach_links
(** The four links connecting datacenter [dc] to its home serializer. *)

val edge_traffic : t -> ((int * int) * int) list
(** Labels sent over each directed serializer edge — the quantitative face
    of genuine partial replication: subtrees without interested
    datacenters see no traffic. *)

val total_label_hops : t -> int
(** Sum of labels over every tree hop (serializer edges + dc egress). *)

val shutdown : t -> unit
(** Stops retransmission timers (end-of-run teardown). *)
