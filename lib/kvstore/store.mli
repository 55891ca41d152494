(** In-memory versioned key-value store, polymorphic in per-version
    metadata.

    One [Store.t] backs each storage server inside a datacenter. The store
    keeps, for every key, the latest version together with the metadata the
    consistency layer attached to it (a Saturn label, a GentleRain scalar, a
    Cure vector, or nothing for the eventual baseline). Last-writer-wins on
    the metadata ordering supplied by the caller. *)

type ('meta, 'k) t

val create : unit -> ('meta, int) t

val put : ('meta, int) t -> key:int -> Value.t -> 'meta -> unit
(** Unconditional write of a new latest version. *)

val put_if_newer :
  ('meta, int) t -> cmp:('meta -> 'meta -> int) -> key:int -> Value.t -> 'meta -> bool
(** Installs the version only if its metadata is strictly greater than the
    current one under [cmp] (or the key is absent). Returns whether the
    write was installed — the replica-side last-writer-wins rule. *)

val get : ('meta, int) t -> key:int -> (Value.t * 'meta) option

val find : ('meta, int) t -> key:int -> Value.t * 'meta
(** The stored pair itself, as {!get} without the [Some]: allocates
    nothing. @raise Not_found when the key is absent. *)

val value_size : ('meta, int) t -> key:int -> int
(** The stored value's size in bytes, 0 when the key is absent — what a
    frontend prices a read by. Allocates nothing. *)

val mem : ('meta, int) t -> key:int -> bool
val size : ('meta, int) t -> int

val puts_applied : ('meta, int) t -> int
(** Number of versions ever installed (monotone counter). *)
