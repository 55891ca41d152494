(** A complete Saturn configuration (§5.4): a tree shape, a geographic
    placement for every serializer, and the artificial propagation delays δ
    a serializer adds on each outgoing hop to approximate optimal visibility
    times. *)

type hop = To_serializer of int | To_dc of int

type t

val create :
  tree:Tree.t ->
  placement:Sim.Topology.site array ->
  dc_sites:Sim.Topology.site array ->
  unit ->
  t
(** Delays start at zero; set them with {!set_delay}.
    @raise Invalid_argument when array sizes disagree with the tree. *)

val tree : t -> Tree.t
val placement : t -> Sim.Topology.site array
val dc_sites : t -> Sim.Topology.site array
val site_of_serializer : t -> int -> Sim.Topology.site
val site_of_dc : t -> int -> Sim.Topology.site

val set_delay : t -> from:int -> hop:hop -> Sim.Time.t -> unit
(** δ added by serializer [from] when forwarding along [hop]. Negative
    values are rejected, and so is a hop the tree does not have. *)

val delay : t -> from:int -> hop:hop -> Sim.Time.t
(** @raise Invalid_argument for a hop the tree does not have. *)

val delays : t -> Sim.Time.t array
(** The live δ table, indexed by the tree's hop numbering
    ({!Tree.edge_hop}, {!Tree.dc_hop}). Writers must keep every entry
    non-negative. *)

val metadata_latency : t -> Sim.Topology.t -> src_dc:int -> dst_dc:int -> Sim.Time.t
(** End-to-end label propagation latency from [src_dc] to [dst_dc]: the
    dc→serializer hop, every serializer hop (with δ), and the final
    serializer→dc hop. *)

val total_delay : t -> Sim.Time.t
(** Sum of all configured artificial delays (diagnostics). *)

val copy : t -> t
(** Deep copy: delays of the copy can be mutated independently. *)

val clear_delays : t -> unit
(** Drops every artificial delay (used by the δ-ablation experiment). *)

val pp : Format.formatter -> t -> unit
