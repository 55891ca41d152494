(** A map from seven int key fields to an int, in one flat [int array]
    probed linearly. A lookup hashes and compares the key fields in place,
    so it builds no key value and allocates nothing; the table holds no
    pointer for the GC to follow, and only its occasional doubling
    allocates. Keys of fewer fields pass 0 for the rest.

    The probe keys its open spans by a span's kind and six fields; the
    fault checker keys its state by up to four of an event's ints.

    A slot index from {!find} is valid until the table next changes. *)

type t

val create : unit -> t

val find : t -> int -> int -> int -> int -> int -> int -> int -> int
(** [find t k0 k1 k2 k3 k4 k5 k6] is the slot holding that key, or the
    free slot that ends its probe run. *)

val found : t -> int -> bool
(** The slot holds a key. *)

val value : t -> int -> int
(** The value at a slot that holds a key. *)

val set : t -> int -> int -> int -> int -> int -> int -> int -> int -> int -> unit
(** [set t i k0 k1 k2 k3 k4 k5 k6 v] binds the key [find] was given to
    [v] at the slot [i] it returned: it updates a found key and adds a
    missing one. *)

val remove : t -> int -> unit
(** Frees a slot that holds a key. The rest of its probe run shifts back
    into the hole, so no tombstones build up. *)

val length : t -> int
(** Keys held. *)
