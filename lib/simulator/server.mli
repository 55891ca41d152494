(** Single-threaded server with a service-time (capacity) model.

    Every storage server, gear and serializer in the simulation is backed by
    one of these. Work items queue and execute one at a time; each item
    consumes a caller-declared service time. This is what turns per-operation
    metadata cost (scalar compare vs O(N) vector merge vs stabilization
    heartbeats) into the throughput differences the paper measures: a server
    saturates when offered-load × mean-service-time reaches 1. *)

type 'a t
(** A server whose work items are values of type ['a]. *)

val create : Engine.t -> ('a -> unit) -> 'a t
(** [create engine handler]: [handler] runs on each item when its service
    completes, as with {!Delay_line.create}. A server of continuations is
    [create engine (fun k -> k ())]. *)

val submit : 'a t -> cost:Time.t -> 'a -> unit
(** Enqueues item [x] that takes [cost] of server time; the handler runs
    on [x] at completion. Items complete in submission order. The queue
    is a {!Delay_line} of items, so a submit and its completion allocate
    nothing beyond the item itself. *)

val busy_time : 'a t -> Time.t
(** Cumulative service time consumed — utilization = busy/elapsed. *)

val completed : 'a t -> int
val queue_length : 'a t -> int

val backlog : 'a t -> Time.t
(** Service time currently queued ahead (0 when idle). *)
