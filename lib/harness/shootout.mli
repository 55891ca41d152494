(** The stabilization shootout: every system — Saturn and the seven
    baselines' worth of causal machinery plus the eventual control — on one
    fixed deployment, measuring what each protocol's stabilization design
    costs in metadata bytes and buys in visibility.

    All systems share the three-site deployment ({!Build.three_site}:
    full replication) and run the same synthetic workload over the same
    measurement window ({!Driver.synthetic}). Saturn runs its {e star}
    configuration (one central serializer, no serializer-to-serializer
    hops): the shootout compares metadata {e volume}, and the star is the
    configuration where Saturn's per-label cost is not inflated by tree
    relaying, mirroring the paper's single-sequencer deployment point.

    Every number is a pure function of the seed (simulated time
    throughout), so the emitted JSON is byte-reproducible: [saturn-cli gate]
    writes it and checks it against the checked-in [BENCH_shootout.json]
    (see {!Gate}). *)

type row = {
  system : string;
  ops : int;  (** client operations completed in the measurement window *)
  throughput : float;  (** ops per simulated second *)
  vis_mean_ms : float;  (** remote-update visibility latency, mean *)
  vis_p50_ms : float;
  vis_p99_ms : float;
  attached_bytes : int;  (** causal metadata shipped with update payloads *)
  stabilization_bytes : int;
      (** dedicated stabilization traffic (sequencer announcements, matrix
          row broadcasts) *)
  heartbeat_bytes : int;  (** idle-channel heartbeats *)
  bytes_per_op : float;
      (** (attached + stabilization + heartbeat) / completed ops — the
          headline metadata-cost figure *)
}

val systems : string list
(** Fixed run order, cheapest metadata family first:
    [eventual; gentlerain; eunomia; saturn; okapi; cure; orbe; cops]. *)

val run_system : ?seed:int -> string -> row
(** One system by name. @raise Invalid_argument outside {!systems}. *)

val print : row list -> unit
(** The results table plus the ordering verdict, on stdout. *)

val to_json : seed:int -> row list -> string
(** The [saturn-bench-shootout/1] document: one ["tiers"] entry per
    system, every field under ["det"] (there is no wall-clock section —
    the whole run is simulated time), so [saturn-cli bench-check] gates
    every field and a double run is byte-identical. *)
