type result = {
  digest : string;
  n_events : int;
  ops : int;
  registry : Stats.Registry.t;
  series : Stats.Series.t;
  probe : Sim.Probe.t;
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
  let blame = Blame.analyze ~optimal (Journey.analyze probe) in
  Blame.fold_counters blame registry;
  {
    digest = Sim.Probe.digest probe;
    n_events = Sim.Probe.count probe;
    ops = driver_result.Driver.ops_completed;
    registry;
    series;
    probe;
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
        output_string oc (Stats.Table.render (Journey.table (Journey.analyze r.probe)));
        output_char oc '\n');
    file "series.csv" (fun oc -> output_string oc (Stats.Series.to_csv r.series));
    file "series.json" (fun oc -> output_string oc (Stats.Series.to_json r.series));
    file "blame.txt" (fun oc -> output_string oc (Blame.render r.blame));
    file "gap.csv" (fun oc -> output_string oc (Blame.gap_csv r.blame));
    file "reconfig.timeline.txt" (fun oc ->
        (* the migration view rides along with the smoke artifacts: a fresh
           fixed-seed reconfig-cut run (graceful epoch switch composed with
           a metadata-tree cut), rendered as the same timeline
           `saturn-cli series --scenario reconfig-cut` prints *)
        let o = Fault_run.run_scenario ~scenario:"reconfig-cut" ~system:`Saturn () in
        output_string oc (Fault_run.timeline_string o));
  ]

(* ---- probe-counter regression gate ------------------------------------- *)

let counter_lines registry =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Stats.Registry.Counter n -> Some (Printf.sprintf "%s %d" name n)
      | Stats.Registry.Gauge _ | Stats.Registry.Hist _ -> None)
    (Stats.Registry.snapshot registry)

let write_counters r ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# smoke-run counter baseline; regenerate every baseline with\n";
      output_string oc "#   ci/regen.sh   (or just this file: saturn-cli obs --counters-out <path>)\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) (counter_lines r.registry))

let check_counters r ~baseline ~tolerance =
  let ic = open_in baseline in
  let lines = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> ());
  let failures = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> failures := Printf.sprintf "malformed baseline line %S" line :: !failures
        | Some i ->
          let name = String.sub line 0 i in
          let expect = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          let got =
            match Stats.Registry.find r.registry name with
            | Some (Stats.Registry.Counter n) -> Some n
            | _ -> None
          in
          (match got with
          | None -> failures := Printf.sprintf "counter %s missing from run" name :: !failures
          | Some got ->
            let slack = Stdlib.max 1. (tolerance *. float_of_int expect) in
            if Float.abs (float_of_int (got - expect)) > slack then
              failures :=
                Printf.sprintf "counter %s drifted: baseline %d, run %d (tolerance %.0f%%)" name
                  expect got (tolerance *. 100.)
                :: !failures))
    (List.rev !lines);
  match List.rev !failures with [] -> Ok () | fs -> Error fs

let run_smoke ?(seed = 42) ?out_dir () =
  let r = smoke ~seed () in
  Stats.Registry.print ~title:(Printf.sprintf "smoke seed=%d" seed) r.registry;
  Printf.printf "trace: %d events, digest %s\n" r.n_events r.digest;
  (match out_dir with
  | Some dir -> Printf.printf "wrote %s\n" (String.concat ", " (write_artifacts r ~out_dir:dir))
  | None -> ());
  r
