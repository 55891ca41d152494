type result = {
  digest : string;
  n_events : int;
  ops : int;
  registry : Stats.Registry.t;
  series : Stats.Series.t;
  probe : Sim.Probe.t;
  journeys : Journey.report;
  blame : Blame.report;
}

let smoke ?(seed = 42) () =
  let topo = Build.topo3 () in
  let dc_sites = [| 0; 1; 2 |] in
  let n_keys = 24 in
  (* full replication: every update interests both remote datacenters, so
     labels provably cross both tree edges *)
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  Stats.Registry.register_pull registry "engine.events_processed" (fun () ->
      float_of_int (Sim.Engine.events_processed engine));
  let probe = Sim.Probe.create ~keep:true () in
  let spec =
    {
      (Build.default_spec ~topo ~dc_sites ~rmap) with
      Build.saturn_config = Some (Build.chain_config ~dc_sites);
      partitions = 2;
      frontends = 2;
    }
  in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let vis_hist = Stats.Registry.histogram registry "smoke.visibility_ms" ~lo:0. ~hi:1000. ~buckets:40 in
  let series = Stats.Series.create () in
  let vis_series = Stats.Series.hist series "series.vis_ms" in
  (* the optimality floor per (origin, dst): shortest bulk path, the same
     matrix Blame attributes against after the run *)
  let optimal = Blame.optimal_matrix ~topo ~dc_sites ~bulk_factor:spec.Build.bulk_factor in
  let gap_series = Stats.Series.hist series "series.gap_ms" in
  Metrics.subscribe metrics (fun ~dc ~key:_ ~origin_dc ~origin_time ~value:_ ->
      let now = Sim.Engine.now engine in
      let ms = Sim.Time.to_ms_float (Sim.Time.sub now origin_time) in
      Stats.Histogram.add vis_hist ms;
      Stats.Series.observe vis_series ~now ms;
      Stats.Series.observe gap_series ~now
        (ms -. (float_of_int optimal.(origin_dc).(dc) /. 1000.)));
  let driver_result =
    Sim.Probe.with_probe probe (fun () ->
        let api, _system = Build.saturn ~registry ~series engine spec metrics in
        let clients = Driver.make_clients ~dc_sites ~per_dc:2 in
        let syn =
          Workload.Synthetic.create
            { Workload.Synthetic.default with n_keys; read_ratio = 0.5; seed }
            ~rmap ~topo ~dc_sites
        in
        Driver.run engine api metrics ~clients
          ~next_op:(fun c -> Workload.Synthetic.next syn ~dc:c.Client.preferred_dc)
          ~warmup:(Sim.Time.of_ms 200) ~measure:(Sim.Time.of_sec 1.) ~cooldown:(Sim.Time.of_ms 200))
  in
  (* fold the per-kind trace counts into the registry so one table shows
     engine, link, tree and proxy activity side by side *)
  List.iter
    (fun (k, n) -> Stats.Registry.incr ~by:n (Stats.Registry.counter registry ("probe." ^ k)))
    (Sim.Probe.counts_by_kind probe);
  (* matched-span time per subsystem: the simulated-time face of the flame
     table, and counter-gated in CI like every other probe statistic *)
  List.iter
    (fun (k, us) -> Stats.Registry.incr ~by:us (Stats.Registry.counter registry ("span." ^ k ^ ".us")))
    (Sim.Probe.span_totals_us probe);
  Stats.Series.seal series ~now:(Sim.Engine.now engine);
  (* fold each series' total event/sample count into the registry, so the
     probe-counter gate also catches a series going silent *)
  List.iter
    (fun name ->
      let total = Array.fold_left (fun acc p -> acc + p.Stats.Series.count) 0 (Stats.Series.points series name) in
      Stats.Registry.incr ~by:total (Stats.Registry.counter registry (name ^ ".n")))
    (Stats.Series.names series);
  (* the blame pass: optimality-gap attribution over the journey report,
     with its aggregates folded into the counter baseline so a silent
     attribution change trips the probe-counter gate *)
  let journeys = Journey.analyze probe in
  let blame = Blame.analyze ~optimal journeys in
  Blame.fold_counters blame registry;
  {
    digest = Sim.Probe.digest probe;
    n_events = Sim.Probe.count probe;
    ops = driver_result.Driver.ops_completed;
    registry;
    series;
    probe;
    journeys;
    blame;
  }

let write_artifacts ?reconfig r ~out_dir =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let file name writer =
    let path = Filename.concat out_dir name in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> writer oc);
    path
  in
  [
    file "trace.jsonl" (fun oc -> Sim.Probe.write_jsonl r.probe oc);
    file "trace.digest" (fun oc -> output_string oc (r.digest ^ "\n"));
    file "trace.chrome.json" (fun oc -> Chrome.write r.probe oc);
    file "decomposition.txt" (fun oc ->
        output_string oc (Stats.Table.render (Journey.table r.journeys));
        output_char oc '\n');
    file "series.csv" (fun oc -> output_string oc (Stats.Series.to_csv r.series));
    file "series.json" (fun oc -> output_string oc (Stats.Series.to_json r.series));
    file "blame.txt" (fun oc -> output_string oc (Blame.render r.blame));
    file "gap.csv" (fun oc -> output_string oc (Blame.gap_csv r.blame));
    file "reconfig.timeline.txt" (fun oc ->
        (* the migration view rides along with the smoke artifacts: the
           fixed-seed reconfig-cut run (graceful epoch switch composed with
           a metadata-tree cut), rendered as the same timeline
           `saturn-cli series --scenario reconfig-cut` prints *)
        let o =
          match reconfig with
          | Some o -> o
          | None -> Fault_run.run_scenario ~scenario:"reconfig-cut" ~system:`Saturn ()
        in
        output_string oc (Fault_run.timeline_string o));
  ]

(* ---- BENCH_smoke.json ----------------------------------------------------- *)

let bench_json ~seed r =
  (* get-or-create returns the hist the run already filled *)
  let vis = Stats.Registry.histogram r.registry "smoke.visibility_ms" ~lo:0. ~hi:1000. ~buckets:40 in
  (* the avoidable part of visibility: per-journey gap over the shortest
     bulk path, from the blame pass the smoke run already performed *)
  let gap = r.blame.Blame.gap_hist in
  let gap_ms p = Stats.Hdr.percentile gap p /. 1000. in
  let peaks =
    List.filter_map
      (fun name ->
        if Stats.Series.kind_of r.series name = Some Stats.Series.Gauge then
          let peak = Array.fold_left max 0. (Stats.Series.primary r.series name) in
          Some (Printf.sprintf "{\"name\":%S,\"peak\":%.3f}" name peak)
        else None)
      (Stats.Series.names r.series)
  in
  (* throughput over the 1 simulated-second measurement window *)
  Printf.sprintf
    "{\"schema\":\"saturn-bench-smoke/1\",\"seed\":%d,\"ops\":%d,\"throughput_ops_s\":%.1f,\"visibility_ms\":{\"n\":%d,\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f},\"gap_ms\":{\"n\":%d,\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f,\"p999\":%.3f},\"series\":{\"window_us\":%d,\"windows\":%d,\"peak\":[%s]}}\n"
    seed r.ops (float_of_int r.ops) (Stats.Histogram.count vis) (Stats.Histogram.mean vis)
    (Stats.Histogram.percentile vis 50.) (Stats.Histogram.percentile vis 99.)
    (Stats.Hdr.count gap) (Stats.Hdr.mean gap /. 1000.) (gap_ms 50.) (gap_ms 99.) (gap_ms 99.9)
    (Sim.Time.to_us (Stats.Series.window r.series))
    (Stats.Series.n_windows r.series) (String.concat "," peaks)

(* ---- probe-counter regression gate ------------------------------------- *)

let counter_tolerance = 0.25

let counters_text r =
  String.concat ""
    ("# smoke-run counter baseline, gated at +-25% by saturn-cli gate;\n"
    :: "# regenerate it with every other baseline: ci/regen.sh\n"
    :: List.filter_map
         (function
           | name, Stats.Registry.Counter n -> Some (Printf.sprintf "%s %d\n" name n)
           | _, (Stats.Registry.Gauge _ | Stats.Registry.Hist _) -> None)
         (Stats.Registry.snapshot r.registry))

(* "name value" lines, blank and '#' lines skipped; a line without a space
   or with a non-integer value is a finding, not an exception *)
let parse_counters ~side text =
  List.partition_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i -> (
        match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
        | Some v -> Left (String.sub line 0 i, v)
        | None -> Right (Printf.sprintf "malformed %s line %S" side line))
      | None -> Right (Printf.sprintf "malformed %s line %S" side line))
    (List.filter
       (fun l -> l <> "" && l.[0] <> '#')
       (List.map String.trim (String.split_on_char '\n' text)))

let check_counters ~baseline run =
  let want, bad_want = parse_counters ~side:"baseline" baseline in
  let got, bad_got = parse_counters ~side:"run" run in
  bad_want @ bad_got
  @ List.filter_map
      (fun (name, expect) ->
        match List.assoc_opt name got with
        | None -> Some (Printf.sprintf "counter %s missing from run" name)
        | Some got ->
          let slack = Stdlib.max 1. (counter_tolerance *. float_of_int expect) in
          if Float.abs (float_of_int (got - expect)) <= slack then None
          else
            Some
              (Printf.sprintf "counter %s drifted: baseline %d, run %d (tolerance %.0f%%)" name
                 expect got (counter_tolerance *. 100.)))
      want
