(** Growable FIFO queue over a power-of-two circular buffer.

    The in-flight store behind {!Link} channels and {!Delay_line}s. It
    needs a value of the element type to fill slots it is not using, and
    takes the first element pushed: the buffer is allocated at the first
    {!push}, so an empty ring costs no buffer and a caller never has to
    invent a dummy. That one element stays referenced for the ring's
    lifetime. After the buffer has grown to the peak length, {!push} and
    {!pop_exn} allocate nothing. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Appends at the back. *)

val peek_exn : 'a t -> 'a
(** The front element. @raise Invalid_argument on an empty ring. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the front element, clearing its slot.
    @raise Invalid_argument on an empty ring. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. [f] must not push to or pop from the ring. *)
