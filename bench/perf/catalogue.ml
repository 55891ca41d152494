(* Every metric the benchmark emits, with its unit, and how a run's sweeps
   become those metrics. BENCHMARK.json declares the same names and units;
   the test holds the two together. *)

open Workloads

type e2e = { name : string; unit_ : string; deterministic : bool; floor : float }

(* deterministic = a pure function of the seed and the code, so it must
   read the same on every sweep of a run and every run of a seed.
   floor = the compare gate's absolute floor, in the metric's unit: a
   change or a spread no larger than it never counts. BENCHMARK.json holds
   only relative bounds, so these two live here. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; deterministic = false; floor = 0.05 };
    { name = "wall_s"; unit_ = "s"; deterministic = false; floor = 0.05 };
    { name = "alloc_words_per_op"; unit_ = "words/op"; deterministic = false; floor = 0. };
    { name = "peak_rss_mb"; unit_ = "MB"; deterministic = false; floor = 5. };
    { name = "sim_ops_per_s"; unit_ = "ops/sim-s"; deterministic = true; floor = 0. };
    { name = "vis_mean_ms"; unit_ = "ms"; deterministic = true; floor = 0. };
    { name = "vis_p99_ms"; unit_ = "ms"; deterministic = true; floor = 0. };
    { name = "meta_bytes_per_op"; unit_ = "B/op"; deterministic = true; floor = 0. };
  ]

(* BENCHMARK.json's bounds with the floors and determinism above *)
let gate (spec : Report.spec) =
  let rule (b : Report.bound) =
    match List.find_opt (fun m -> m.name = b.Report.bname) end_to_end with
    | Some m -> { b with Report.floor = m.floor; exact = m.deterministic }
    | None -> b
  in
  { spec with Report.end_to_end = List.map rule spec.Report.end_to_end }

let api_ops = [ "attach"; "read"; "update"; "migrate" ]

let per_layer =
  [ ("build.setup_s", "s"); ("config.solve_s", "s") ]
  @ [
      ("workload.gen_s", "s"); ("workload.gen_words_per_edge", "words/edge");
      ("workload.next_ns", "ns"); ("workload.next_words", "words");
      ("workload.remote_read_share", "ratio");
    ]
  @ [ ("kvstore.replica_map_s", "s"); ("kvstore.keys", "count"); ("kvstore.mean_degree", "replicas") ]
  @ List.concat_map
      (fun op ->
        [
          (Printf.sprintf "api.%s.calls" op, "count"); (Printf.sprintf "api.%s.self_ns" op, "ns");
          (Printf.sprintf "api.%s.sim_p50_ms" op, "ms"); (Printf.sprintf "api.%s.sim_p99_ms" op, "ms");
        ])
      api_ops
  @ [
      ("engine.events", "count"); ("engine.events_per_op", "events/op");
      ("engine.self_ns_per_event", "ns"); ("link.sends_per_op", "msgs/op");
      ("link.in_flight_peak", "msgs"); ("link.drops", "count");
    ]
  @ [
      ("sink.hold_us_per_label", "us"); ("serializer.chain_us_per_label", "us");
      ("serializer.delay_us_per_label", "us"); ("serializer.hops_per_label", "hops");
      ("proxy.order_us_per_apply", "us"); ("bulk.transit_us_per_update", "us");
      ("sink.depth_peak", "labels"); ("serializer.pending_peak", "msgs");
      ("proxy.pending_peak", "updates"); ("meta.attached_bytes_per_op", "B/op");
      ("meta.heartbeat_bytes_per_op", "B/op"); ("meta.stabilization_bytes_per_op", "B/op");
    ]
  @ List.concat_map
      (fun system ->
        [
          (Printf.sprintf "row.%s.wall_s" system, "s");
          (Printf.sprintf "row.%s.alloc_words_per_op" system, "words/op");
          (Printf.sprintf "row.%s.vis_p99_ms" system, "ms");
          (Printf.sprintf "row.%s.meta_bytes_per_op" system, "B/op");
        ])
      Harness.Shootout.systems
  @ [ ("stab.rounds_per_op", "rounds/op"); ("stab.hold_us_per_update", "us") ]
  @ [ ("obs.probe_events_per_op", "events/op"); ("obs.tax_ratio", "ratio") ]
  @ [
      ("checker.analyze_s", "s"); ("faults.resends", "count"); ("faults.drops", "count");
      ("faults.head_changes", "count"); ("faults.switches", "count");
    ]
  @ List.concat_map
      (fun (scenario, system) ->
        [
          (Printf.sprintf "row.%s-%s.recovery_ms" scenario system, "ms");
          (Printf.sprintf "row.%s-%s.vis_p99_ms" scenario system, "ms");
        ])
      fault_rows
  @ [
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_words_per_op", "words/op"); ("gc.top_heap_mb", "MB");
    ]
  @ [ ("trace.overhead_ratio", "ratio") ]

(* ---- from sweeps to metrics ------------------------------------------------ *)

let words_per_op s = per s.words s.ops

(* the checks every run makes on its own sweeps; each failure names its
   check *)
let check_sweeps sweeps =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iteri
    (fun i s ->
      if s.empty_rows <> [] then
        fail "rows-complete-ops: sweep %d, %s completed no operation" (i + 1)
          (String.concat ", " s.empty_rows);
      if s.failed > 0 then fail "no-failed-ops: sweep %d, %d operations failed" (i + 1) s.failed;
      match s.check with Ok _ -> () | Error e -> fail "outputs: sweep %d, %s" (i + 1) e)
    sweeps;
  (match sweeps with
  | [] -> fail "sweeps: none ran"
  | first :: rest ->
    List.iteri
      (fun i s ->
        List.iter
          (fun (k, v) ->
            if List.assoc_opt k s.det <> Some v then
              fail "deterministic: %s differs between sweep 1 and sweep %d" k (i + 2))
          first.det;
        if Array.length s.slices <> Array.length first.slices then
          fail "deterministic: sweep %d has %d slices, sweep 1 has %d" (i + 2) (Array.length s.slices)
            (Array.length first.slices))
      rest);
  List.rev !failures

(* one sweep as its own process saw it: its set-up's host seconds and the
   reference timed on the two sides of the set-up *)
type sample = { setup_s : float; setup_ref_s : float; rss_mb : float; sweep : sweep }

(* The two host times are put on the reference's nominal scale (Calib),
   so that a machine slowed by other tenants does not read as slower code.
   [wall_s] is assembled slice by slice. A slice is the same work in every
   sweep of a run; each sweep's time for it is scaled by the reference
   timed on its two sides, the median over the run's sweeps taken, and the
   medians summed. [setup_s] is the median scaled set-up. Memory and
   allocation are plain medians. *)
let scaled_wall_s samples =
  let sweeps = List.map (fun s -> s.sweep) samples in
  let n = List.fold_left (fun acc s -> min acc (Array.length s.slices)) max_int sweeps in
  let slice i =
    Report.median (List.map (fun s -> Calib.scaled ~ref_s:s.slice_refs.(i) s.slices.(i)) sweeps)
  in
  List.fold_left ( +. ) 0. (List.init n slice)

(* one sweep's measured phase on the same scale, for ratios between
   passes *)
let scaled_phase_s s =
  let total = ref 0. in
  Array.iteri (fun i x -> total := !total +. Calib.scaled ~ref_s:s.slice_refs.(i) x) s.slices;
  !total

let scaled_setup_s samples =
  Report.median (List.map (fun s -> Calib.scaled ~ref_s:s.setup_ref_s s.setup_s) samples)

let end_to_end_metrics samples =
  let med f = Report.median (List.map f samples) in
  let first = (List.hd samples).sweep in
  List.map
    (fun m ->
      let value =
        match m.name with
        | "setup_s" -> scaled_setup_s samples
        | "wall_s" -> scaled_wall_s samples
        | "alloc_words_per_op" -> med (fun s -> words_per_op s.sweep)
        | "peak_rss_mb" -> med (fun s -> s.rss_mb)
        | k -> List.assoc k first.det
      in
      { Report.name = m.name; unit_ = m.unit_; value })
    end_to_end

(* the values behind each end-to-end metric, for the quartiles table: the
   host times as measured, whole sweeps, before scaling *)
let end_to_end_values samples name =
  match name with
  | "setup_s" -> List.map (fun s -> s.setup_s) samples
  | "wall_s" -> List.map (fun s -> s.sweep.wall_s) samples
  | "alloc_words_per_op" -> List.map (fun s -> words_per_op s.sweep) samples
  | "peak_rss_mb" -> List.map (fun s -> s.rss_mb) samples
  | k -> [ List.assoc k (List.hd samples).sweep.det ]

(* per-layer values of a traced run: what set-up measured, then the
   counted pass, the spans pass and the untraced sweep, later sources
   overriding earlier ones (so host figures several passes share come from
   the untraced sweep), plus the ratios between the passes' scaled
   phases; a layer a workload never calls into reads 0 *)
let layer_metrics ~setup_layers ~build_s ~top_heap_mb ~plain ~spans ~counted =
  let sources = setup_layers @ counted.layers @ spans.layers @ plain.layers in
  let measured name = List.fold_left (fun acc (k, v) -> if k = name then Some v else acc) None sources in
  let value name =
    match (name, measured name) with
    | "build.setup_s", _ -> build_s
    | "gc.minor_collections", _ -> float_of_int plain.minor_gcs
    | "gc.major_collections", _ -> float_of_int plain.major_gcs
    | "gc.promoted_words_per_op", _ -> per plain.promoted plain.ops
    | "gc.top_heap_mb", _ -> top_heap_mb
    | "obs.tax_ratio", _ -> scaled_phase_s counted /. scaled_phase_s plain
    | "trace.overhead_ratio", _ -> scaled_phase_s spans /. scaled_phase_s plain
    | _, Some v -> v
    (* where the benchmark cannot see inside the measured call (the fault
       matrix, the shootout rows) there are no child spans to subtract: the
       figure is the whole untraced call per event *)
    | "engine.self_ns_per_event", None ->
      per (plain.wall_s *. 1e9) (int_of_float (Option.value (measured "engine.events") ~default:0.))
    | _, None -> 0.
  in
  List.map (fun (name, unit_) -> { Report.name; unit_; value = value name }) per_layer

(* layer names a sweep produced that the catalogue does not declare *)
let undeclared sweep =
  List.filter_map
    (fun (k, _) -> if List.mem_assoc k per_layer then None else Some k)
    sweep.layers
