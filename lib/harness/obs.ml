type result = {
  digest : string;
  n_events : int;
  ops : int;
  visibility : Stats.Hdr.t;
  registry : Stats.Registry.t;
  series : Stats.Series.t;
  probe : Sim.Probe.t;
  journeys : Journey.report;
  blame : Blame.report;
}

let smoke ?(seed = 42) () =
  (* full replication: every update interests both remote datacenters, so
     labels provably cross both tree edges of the chain *)
  let spec = Build.three_site Build.chain_config in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  Stats.Registry.register_pull registry "engine.events_processed" (fun () ->
      float_of_int (Sim.Engine.events_processed engine));
  let probe = Sim.Probe.create ~keep:true () in
  (* the journey fold reads events as they are recorded: no post-run pass *)
  let journey = Journey.create () in
  Sim.Probe.subscribe probe (Journey.step journey);
  let { Build.topo; dc_sites; _ } = spec in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let visibility = Stats.Hdr.create () in
  let series = Stats.Series.create () in
  (* the optimality floor per (origin, dst): shortest bulk path, the same
     matrix Blame attributes against after the run *)
  let optimal = Blame.observe_series engine metrics series spec in
  Metrics.subscribe metrics (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time ~value:_ ->
      Stats.Hdr.add visibility (Sim.Time.to_us (Sim.Time.sub (Sim.Engine.now engine) origin_time)));
  let driver_result =
    Sim.Probe.with_probe probe (fun () ->
        let api, _system = Build.saturn ~registry ~series engine spec metrics in
        Driver.synthetic engine api metrics spec ~seed ~per_dc:2 ~cooldown:(Sim.Time.of_ms 200))
  in
  (* fold the per-kind trace counts into the registry so one table shows
     engine, link, tree and proxy activity side by side *)
  List.iter
    (fun (k, n) -> Stats.Registry.incr_by (Stats.Registry.counter registry ("probe." ^ k)) n)
    (Sim.Probe.counts_by_kind probe);
  (* matched-span time per subsystem: the simulated-time face of the flame
     table, and counter-gated in CI like every other probe statistic *)
  List.iter
    (fun (k, us) -> Stats.Registry.incr_by (Stats.Registry.counter registry ("span." ^ k ^ ".us")) us)
    (Sim.Probe.span_totals_us probe);
  Stats.Series.seal series ~now:(Sim.Engine.now engine);
  (* fold each series' total event/sample count into the registry, so the
     probe-counter gate also catches a series going silent *)
  List.iter
    (fun name ->
      let total = Array.fold_left (fun acc p -> acc + p.Stats.Series.count) 0 (Stats.Series.points series name) in
      Stats.Registry.incr_by (Stats.Registry.counter registry (name ^ ".n")) total)
    (Stats.Series.names series);
  (* the blame pass: optimality-gap attribution over the journey report,
     with its aggregates folded into the counter baseline so a silent
     attribution change trips the probe-counter gate *)
  let journeys = Journey.report journey in
  let blame = Blame.analyze ~optimal journeys in
  Blame.fold_counters blame registry;
  {
    digest = Sim.Probe.digest probe;
    n_events = Sim.Probe.count probe;
    ops = driver_result.Driver.ops_completed;
    visibility;
    registry;
    series;
    probe;
    journeys;
    blame;
  }

let write_artifacts r ~out_dir =
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
  ]

(* ---- BENCH_smoke.json ----------------------------------------------------- *)

let bench_json ~seed r =
  let vis = r.visibility in
  let vis_ms p = Stats.Hdr.percentile vis p /. 1000. in
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
    seed r.ops (float_of_int r.ops) (Stats.Hdr.count vis) (Stats.Hdr.mean vis /. 1000.)
    (vis_ms 50.) (vis_ms 99.)
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
           | _, Stats.Registry.Gauge _ -> None)
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
          (* symmetric: the larger side may exceed the smaller by the
             tolerance, whichever side it is *)
          let lo = Stdlib.min got expect and hi = Stdlib.max got expect in
          if hi - lo <= 1 || float_of_int hi <= (1. +. counter_tolerance) *. float_of_int lo then None
          else
            Some
              (Printf.sprintf "counter %s drifted: baseline %d, run %d (tolerance %.0f%%)" name
                 expect got (counter_tolerance *. 100.)))
      want
