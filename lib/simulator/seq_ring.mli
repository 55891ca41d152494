(** A map from sequence numbers to values over a sliding window, in a
    power-of-two circular buffer: seq [s] lives at slot [s land mask].

    The store behind a chain replica's messages, a chain's per-seq origin
    keys and confirm tokens, and a deferred receiver's unconfirmed
    messages. Each keeps a dense run of seqs whose low end advances, so
    the buffer only ever spans the live window; it doubles, and re-lays
    its slots, when a seq would fall outside. Like {!Ring} it fills free
    slots with the first value set, which stays referenced for the map's
    lifetime. Once the buffer has grown to the widest window, nothing
    allocates. *)

type 'a t

val create : unit -> 'a t

val mem : 'a t -> int -> bool

val get : 'a t -> int -> 'a
(** @raise Not_found when the seq is not held. *)

val set : 'a t -> int -> 'a -> unit
(** Holds the value at the seq, replacing any value held there. The window
    grows to take in any seq, below the lowest held one too. *)

val remove : 'a t -> int -> unit
(** A no-op when the seq is not held. *)

val drop_below : 'a t -> int -> unit
(** Removes every seq below the one given. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Over the seqs held when it starts, in increasing order, skipping any
    that [f] removes first. [f] may remove seqs and replace values; it
    must not hold a seq that is not held. *)
