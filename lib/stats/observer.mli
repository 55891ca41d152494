(** What one deployment reports through: the run's metric {!Registry} and,
    when the run keeps windowed telemetry, its {!Series}. Given once when
    the deployment is built and handed down to every layer; a layer that
    must not claim the run's series names gets [{ o with series = None }]. *)

type t = { registry : Registry.t; series : Series.t option }

val create : unit -> t
(** A fresh registry and no series: a deployment nobody observes. *)
