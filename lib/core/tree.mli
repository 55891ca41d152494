(** Shape of the serializer tree (§5.3).

    Serializers and datacenters form a tree: serializers are internal
    infrastructure nodes, each datacenter attaches (as a leaf) to exactly
    one serializer. Labels travel along tree paths over FIFO channels;
    because every serializer relays in arrival order, each datacenter
    receives a causally consistent serialization.

    The structure precomputes routing (next hops) and, for every directed
    serializer edge, the set of datacenters on the far side — that is what
    lets a serializer forward a label only toward interested datacenters,
    giving genuine partial replication. *)

type t

val create : n_serializers:int -> edges:(int * int) list -> attach:int array -> t
(** [attach.(dc)] is the serializer datacenter [dc] connects to. [edges]
    must form a tree over the serializers (connected, n-1 edges).
    @raise Invalid_argument otherwise. *)

val star : n_dcs:int -> t
(** Single serializer with every datacenter attached — the S-configuration. *)

val n_serializers : t -> int
val n_dcs : t -> int
val edges : t -> (int * int) list
val neighbors : t -> int -> int list
val serializer_of : t -> dc:int -> int
val dcs_at : t -> int -> int list

val next_hop : t -> src:int -> dst:int -> int
(** Neighbor of [src] on the unique path to serializer [dst].
    @raise Invalid_argument if [src = dst]. *)

val serializer_path : t -> src_dc:int -> dst_dc:int -> int list
(** Serializers traversed from [src_dc]'s attachment to [dst_dc]'s,
    inclusive. A single element when both attach to the same serializer. *)

val n_hops : t -> int
(** Directed hops a label can take out of a serializer, numbered densely:
    serializer edge k of {!edges} is hops 2k (first → second) and 2k + 1
    (second → first), and datacenter d's delivery hop (from its serializer)
    is 2(n_serializers − 1) + d. Configurations index their artificial
    delays by this numbering. *)

val edge_hop : t -> from:int -> via:int -> int
(** Hop number of the directed serializer edge [from → via].
    @raise Invalid_argument if it is not an edge. *)

val dc_hop : t -> dc:int -> int
(** Hop number of the delivery from [dc]'s serializer to [dc]. *)

val dcs_behind : t -> from:int -> via:int -> int list
(** Datacenters whose attachment lies on the [via] side of the directed
    serializer edge [from → via]. Precomputed; O(1) lookup. *)

val routes_toward : t -> at:int -> dc:int -> int option
(** [routes_toward t ~at ~dc] is [Some next] when serializer [at] must
    forward toward neighbor [next] to reach [dc], or [None] when [dc] is
    attached locally. *)

val pp : Format.formatter -> t -> unit
