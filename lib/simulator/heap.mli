(** Array-based binary min-heap, polymorphic in the element type.

    The ordering function is supplied at creation time. Used by the event
    queue and by the statistics modules; kept generic so it can be
    property-tested in isolation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** Fresh empty heap ordered by [cmp] (smallest element at the top). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; does not modify the heap. *)

(** Min-heap keyed by a pair of unboxed integers, compared lexicographically
    [(k1, k2)] — the engine's event queue and the sink/proxy label buffers.

    Heap positions hold only ints: [k1], [k2] and the payload's {e slot}.
    A payload stays in a slot-indexed array for its whole time in the
    queue, and freed slots go on a free stack for the next push. So a sift
    moves a hole over the int arrays and never writes a pointer: a push
    writes the payload array once, a pop once (the dummy that lets the
    payload be collected), and neither pays a write barrier per level.
    After the arrays have grown to the peak size, {!push} and {!pop_exn}
    allocate nothing; {!pop} allocates only its [Some]. *)
module Keyed : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills free slots so popped payloads do not leak. *)

  val size : 'a t -> int
  val is_empty : 'a t -> bool

  val capacity : 'a t -> int
  (** Payload slots allocated. Slots freed by a pop or {!clear} are reused,
      so this only grows (by doubling) when {!size} would exceed it. *)

  val push : 'a t -> k1:int -> k2:int -> 'a -> unit

  val peek : 'a t -> 'a option
  (** Payload of the smallest key without removing it. *)

  val min_k1 : 'a t -> int
  (** Primary key of the smallest entry. @raise Invalid_argument if empty. *)

  val min_payload : 'a t -> 'a
  (** {!peek} without the option: the payload of the smallest key,
      allocating nothing. @raise Invalid_argument if empty. *)

  val pop_exn : 'a t -> 'a
  (** Removes and returns the payload of the smallest key, allocating
      nothing. Its keys are readable via {!popped_k1}/{!popped_k2} until
      the next pop. @raise Invalid_argument on an empty heap. *)

  val pop : 'a t -> 'a option
  (** {!pop_exn}, or [None] on an empty heap. *)

  val popped_k1 : 'a t -> int
  val popped_k2 : 'a t -> int
  (** Keys of the most recently popped entry. Unspecified before the first
      successful pop. *)

  val clear : 'a t -> unit
end
