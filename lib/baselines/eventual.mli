(** Eventually consistent geo-replicated store — the paper's baseline
    (§7.1).

    No consistency metadata at all: updates are timestamped only for
    last-writer-wins convergence, replicated over the bulk channel and made
    visible the instant the payload arrives. This is the throughput
    upper-bound and visibility-latency lower-bound ("optimal") every other
    system is compared against. *)

type t

include Common.S with type t := t

val create :
  ?series:Stats.Series.t -> ?meta:Stats.Meta_bytes.t -> Sim.Engine.t -> Common.params ->
  Common.hooks -> t
