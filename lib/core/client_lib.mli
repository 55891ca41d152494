(** Client-side library (§2, §4.1).

    Clients never talk to each other: all communication goes through the
    storage system. The library keeps the client's causal past as the
    greatest label the client has observed, updating it on reads (when the
    read version's label is greater) and on every write/migration (whose
    label is greater by construction). The label is piggybacked on every
    request and is what makes safe datacenter migration possible. *)

type t

val create : id:int -> home_site:Sim.Topology.site -> preferred_dc:int -> t

val home_site : t -> Sim.Topology.site
val preferred_dc : t -> int

val current_dc : t -> int
(** Datacenter the client is currently attached to. *)

val set_current_dc : t -> int -> unit

val causal_past : t -> Label.t option
(** [None] until the client has observed any labelled operation. *)

val observe : t -> Label.t -> unit
(** Merge a label into the causal past: replaces it iff greater. *)
