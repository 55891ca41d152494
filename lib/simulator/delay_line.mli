(** A FIFO of timed items: the allocation-free replacement for
    [Engine.schedule_at t at (fun () -> handler x)] when due times never
    decrease.

    Each {!push} schedules exactly one engine event at [at], at the same
    point and with the same time as the closure it replaces, so event
    counts and sequence numbers are unchanged. Every such event runs the
    one closure made at {!create}, which pops the oldest item and hands it
    to the handler. Because due times are non-decreasing and equal-time
    events fire in scheduling order, the event that fires is always the
    oldest item's. A server's completions (one queue, costs ≥ 0) and a
    tree hop's δ wait (δ fixed per hop) both qualify. *)

type 'a t

val create : Engine.t -> ('a -> unit) -> 'a t
(** [create engine handler]: [handler] runs on each item at its due time. *)

val push : 'a t -> at:Time.t -> 'a -> unit
(** Schedules [handler x] at absolute time [at] (clamped to now, as
    {!Engine.schedule_at} does). Allocates nothing once the line's buffer
    has grown to its peak length.
    @raise Invalid_argument when [at] is earlier than the previous push's. *)

val length : 'a t -> int
(** Items pushed and not yet handed to the handler. An item leaves the
    line just before its handler runs. *)
