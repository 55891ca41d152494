(** Simulated-time windowed telemetry.

    Where [Registry] answers "how much, over the whole run", a [Series.t]
    answers "how much, *when*": simulated time is split into fixed-width
    windows (default 50 sim-ms) and every registered series produces one
    summary point per window. Three kinds exist:

    - {b counter} series record the per-window delta of a monotone count
      (apply throughput, serializer ingress rate);
    - {b gauge} series sample a pull closure on every [tick] and summarize
      the samples per window as min/mean/max (queue depths, link in-flight
      counts);
    - {b histogram} series collect per-window latency observations and
      report per-window p50/p99 (remote-update visibility latency, the
      time-resolved view of the paper's Fig. 4). Observations are taken
      in milliseconds but stored as integer microseconds in log-bucketed
      {!Hdr} histograms, so the per-window percentiles keep a constant
      relative error (< 0.8%) instead of the 1 ms linear-bucket floor —
      sub-ms tails at the million-user tier stay resolvable, and
      multi-second fault-era spikes no longer saturate a fixed range.

    Windows are left-closed, right-open: an event at exactly [k * window]
    belongs to window [k], never to window [k-1]. A window with no events
    still yields a (zero/empty) point, so every series spans the same axis.

    Determinism: all state changes are driven by simulation events (writes
    and engine-scheduled ticks), so with a fixed seed the rendered output is
    byte-identical across runs — [digest] is CI-gated on exactly that.
    Names must start with ["series."] and follow the counter-name grammar
    ([a-z0-9_.-], dotted); [saturn-lint] checks literals at registration
    sites statically. *)

type t

val create : ?window:Sim.Time.t -> unit -> t
(** [window] defaults to 50 sim-ms.
    @raise Invalid_argument if the window is not positive. *)

val window : t -> Sim.Time.t
val tick_period : t -> Sim.Time.t
(** [window t / 5] — the cadence the owning system should schedule [tick]
    at, five gauge samples per window. *)

(** {2 Registration and recording}

    Registration is get-or-create for counters and histograms (independent
    components that agree on a name share the series); [sample] raises on a
    duplicate name, as two closures for one gauge would be ambiguous.
    All registration raises [Invalid_argument] if the name does not start
    with ["series."] or is already bound to a different kind. *)

type counter

val counter : t -> string -> counter
val incr : ?by:int -> counter -> now:Sim.Time.t -> unit

val sample : t -> string -> (unit -> float) -> unit
(** Register a pull gauge, sampled on every [tick]. *)

type hist

val hist : t -> string -> hist
val observe : hist -> now:Sim.Time.t -> float -> unit

val tick : t -> now:Sim.Time.t -> unit
(** Sample every pull gauge into the window containing [now]. Ticks only
    read foreign state and emit no probe events: sampling cannot change
    protocol behaviour. (The periodic timer the owning system schedules to
    drive [tick] does add its own engine-step events to the trace, so an
    instrumented run's digest differs from an uninstrumented one's — but
    deterministically.) *)

val seal : t -> now:Sim.Time.t -> unit
(** Close the window containing [now]: flush every accumulator so the data
    recorded so far is visible to the readers below. Call once after the
    run's driver finishes. Recording after [seal] is allowed (later windows
    reopen), but points already closed are final. *)

(** {2 Annotations}

    Named instants on the window axis — fault, heal and epoch-switch marks
    a timeline renders alongside the series. They carry no values; they
    appear in {!to_csv} as pseudo-rows (kind ["annotation"]) and in
    {!to_json} under ["annotations"], so the digest covers them. *)

val annotate : t -> us:int -> string -> unit
(** Record that [name] happened at absolute simulated time [us]. *)

val annotations : t -> (int * string) list
(** Every recorded annotation as [(us, name)], sorted by time then name —
    deterministic regardless of recording order. *)

(** {2 Reading} *)

type kind = Counter | Gauge | Hist

type point = {
  count : int;  (** counter delta / gauge samples taken / hist observations *)
  vmin : float;
  vmean : float;
  vmax : float;
  p50 : float;  (** histogram series only; 0 elsewhere or when empty *)
  p99 : float;
}

val n_windows : t -> int
(** Number of closed windows (the common axis length of [points]). *)

val names : t -> string list
(** Name-sorted. *)

val kind_of : t -> string -> kind option

val points : t -> string -> point array
(** Per-window summaries, padded with empty points to [n_windows].
    @raise Invalid_argument on an unknown name. *)

val primary : t -> string -> float array
(** The one number per window a timeline plots: counter delta for counter
    series, max sample for gauge series, p99 for histogram series. *)

(** {2 Rendering} *)

val to_csv : t -> string
(** Long-form CSV: [series,kind,window,start_ms,count,min,mean,max,p50,p99],
    sorted by series name then window index, then one pseudo-row per
    annotation (kind ["annotation"], window index and start_ms from the
    annotation's instant, zero values). Deterministic. *)

val to_json : t -> string
(** One JSON object: window width, axis length, per-series point arrays
    (name-sorted) and the annotation list. Deterministic. *)

val digest : t -> string
(** FNV-1a 64-bit digest of [to_csv t], rendered as 16 hex digits. *)

val sparkline : float array -> string
(** One ASCII character per window, [" .:-=+*#%@"] scaled to the max value
    (all-zero input renders as spaces). Pure; usable on [primary] output. *)

val to_table : ?title:string -> t -> Table.t
(** One row per series: name, kind, windows, peak primary value, sparkline. *)

(** {2 Recovery detection} *)

val recovery_window :
  window_us:int ->
  fault_at_us:int ->
  heal_at_us:int ->
  ?tolerance:float ->
  ?slack:float ->
  float array ->
  int option
(** [recovery_window ~window_us ~fault_at_us ~heal_at_us values] finds the
    first window index at or after the heal whose value is back within
    tolerance of the pre-fault steady state: steady is the mean of the
    windows strictly before the fault window, and a window [i] recovers
    when [values.(i) <= steady * (1 + tolerance) + slack] ([tolerance]
    defaults to 0.25, [slack] to 0). Returns [None] when there is no
    pre-fault window to calibrate against or no window recovers. Pure —
    unit-testable on hand-built arrays. *)
