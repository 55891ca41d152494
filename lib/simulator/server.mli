(** Single-threaded server with a service-time (capacity) model.

    Every storage server, gear and serializer in the simulation is backed by
    one of these. Work items queue and execute one at a time; each item
    consumes a caller-declared service time. This is what turns per-operation
    metadata cost (scalar compare vs O(N) vector merge vs stabilization
    heartbeats) into the throughput differences the paper measures: a server
    saturates when offered-load × mean-service-time reaches 1. *)

type t

val create : Engine.t -> t

val submit : t -> cost:Time.t -> (unit -> unit) -> unit
(** Enqueues a work item that takes [cost] of server time; [k] runs at
    completion. Items complete in submission order. The queue is a
    {!Delay_line} of continuations, so beyond the caller's own [k] a
    submit and its completion allocate nothing. *)

val busy_time : t -> Time.t
(** Cumulative service time consumed — utilization = busy/elapsed. *)

val completed : t -> int
val queue_length : t -> int

val backlog : t -> Time.t
(** Service time currently queued ahead (0 when idle). *)
