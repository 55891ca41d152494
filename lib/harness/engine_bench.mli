(** Raw engine speed per scale tier, and the perf-regression gate over it.

    [bench -- engine] runs three phases per {!Workload.Scale} tier —
    graph generation, op streaming, and a fixed Saturn simulation — and
    records two kinds of numbers:

    - {e deterministic} ("det"): edge counts, op counts, engine event
      counts, [Gc] allocated words per op/edge, and the words the finished
      graph retains per edge. For a fixed seed and
      compiler these are pure functions of the code, so CI hard-gates them
      (within a tolerance for words, which may drift slightly across
      compiler point releases).
    - {e wall-clock} ("wall"): events/sec, ops/sec, milliseconds. Shared
      CI runners make these noisy, so the gate only reports them.

    Wall-clock time enters through the [now_s] parameter (seconds, any
    epoch); the library itself never reads an ambient clock, keeping the
    deterministic/advisory split architectural. *)

type tier_result = {
  tier : string;
  users : int;
  (* deterministic *)
  edges : int;
  gen_words_per_edge : float;
  graph_words_per_edge : float;
      (** [Obj.reachable_words] of the finished graph per edge: retained,
          not allocated, memory *)
  stream_ops : int;
  stream_words_per_op : float;
  sim_ops : int;
  sim_events : int;
  sim_words_per_op : float;
      (** words allocated inside the measured window (the 1 s after the
          200 ms warm-up) per op that window completed *)
  (* wall-clock, advisory *)
  gen_ms : float;
  stream_kops_per_s : float;
  sim_events_per_s : float;
  sim_ms : float;
}

val run_tier :
  ?now_s:(unit -> float) -> ?stream_ops:int -> seed:int -> Workload.Scale.tier -> tier_result
(** One tier. [now_s] defaults to a constant clock (wall fields read 0);
    [stream_ops] is the phase-B op budget (default 200_000). *)

val to_json : seed:int -> tier_result list -> string
(** The [saturn-bench-engine/1] document, one line. *)

(** Minimal JSON reader for the gate — just enough for BENCH_*.json
    documents (objects, arrays, numbers, strings, bools, null). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> t
  (** @raise Failure on malformed input. *)

  val member : string -> t -> t option
end

type check_result = {
  failures : string list;  (** deterministic drift — the gate fails *)
  notes : string list;  (** advisory wall-clock deltas *)
}

val tolerance : float
(** 0.02 — the band [saturn-cli bench-check] and [saturn-cli gate] apply
    to every deterministic field. *)

val check : baseline:string -> fresh:string -> tolerance:float -> check_result
(** Compares two [saturn-bench-engine/1] documents (raw JSON strings).
    Every "det" field of every baseline tier must exist in the fresh run
    within relative [tolerance]; missing tiers, missing or extra "det"
    fields, and schema mismatches are failures. "wall" fields only
    produce notes. @raise Failure if either document is not valid JSON. *)
