let seed = 42

type rule = Exact | Counters | Bench

type baseline = { file : string; checked_in : string; rule : rule }

let baselines =
  [
    { file = "smoke/smoke-counters.txt"; checked_in = "ci/smoke-counters.txt"; rule = Counters };
    { file = "faults/faults-digest.txt"; checked_in = "ci/faults-digest.txt"; rule = Exact };
    { file = "faults/series-digest.txt"; checked_in = "ci/series-digest.txt"; rule = Exact };
    { file = "faults/blame-digest.txt"; checked_in = "ci/blame-digest.txt"; rule = Exact };
    { file = "plan/plan-default.txt"; checked_in = "ci/plan-default.txt"; rule = Exact };
    { file = "smoke/BENCH_smoke.json"; checked_in = "BENCH_smoke.json"; rule = Exact };
    { file = "shootout/BENCH_shootout.json"; checked_in = "BENCH_shootout.json"; rule = Bench };
  ]

(* the matrix rows whose windowed series are pinned, in the line order of
   series-digest.txt *)
let series_rows = [ ("partition", `Saturn); ("reconfig-cut", `Saturn); ("partition", `Eventual) ]

let series_digest_line sr =
  Printf.sprintf "series digest: %s (%d series x %d windows)\n" (Stats.Series.digest sr)
    (List.length (Stats.Series.names sr))
    (Stats.Series.n_windows sr)

let blame_digest_line run (b : Blame.report) =
  Printf.sprintf "%s %s journeys %d fallback %d incomplete %d\n" run (Blame.digest b)
    (List.length b.Blame.blamed) b.Blame.fallback_applied b.Blame.incomplete

(* ---- files ------------------------------------------------------------------ *)

let read path =
  if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all) else None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---- comparison -------------------------------------------------------------- *)

let compare_one ~root ~manifest b =
  let named = List.map (fun m -> Printf.sprintf "%s: %s" b.checked_in m) in
  let exact want got =
    match Diff.content ~file:b.checked_in want got with
    | Diff.Same -> []
    | Diff.Differs f -> [ "checked-in (A) vs this run (B), " ^ Diff.render f ]
  in
  match (read (Filename.concat root b.checked_in), read (Filename.concat manifest b.file)) with
  | None, _ -> named [ "checked-in baseline missing" ]
  | _, None -> named [ Printf.sprintf "%s missing from the manifest" b.file ]
  | Some want, Some got -> (
    match b.rule with
    | Exact -> exact want got
    | Counters -> named (Obs.check_counters ~baseline:want got)
    | Bench -> (
      match Engine_bench.check ~baseline:want ~fresh:got ~tolerance:Engine_bench.tolerance with
      | { Engine_bench.failures = []; _ } -> exact want got
      | { Engine_bench.failures; _ } -> named failures
      | exception Failure e -> named [ e ]))

let compare ~root ~manifest = List.concat_map (compare_one ~root ~manifest) baselines

let write_baselines ~root ~manifest =
  List.iter
    (fun b ->
      match read (Filename.concat manifest b.file) with
      | Some s -> write (Filename.concat root b.checked_in) s
      | None -> invalid_arg ("Gate.write_baselines: manifest lacks " ^ b.file))
    baselines

(* ---- the scenarios ----------------------------------------------------------- *)

let orphan_findings runs =
  List.filter_map
    (fun (run, probe) ->
      match Sim.Probe.span_orphans probe with
      | 0 -> None
      | n -> Some (Printf.sprintf "%s: %d span end(s) matched no open begin" run n))
    runs

(* a broken tiling breaks thousands of journeys alike: name the first few *)
let tiling_findings run blame =
  match Blame.check blame with
  | Ok () -> []
  | Error ms ->
    let n = List.length ms in
    let more = if n > 5 then [ Printf.sprintf "... %d more" (n - 5) ] else [] in
    List.map (Printf.sprintf "%s tiling: %s" run) (List.filteri (fun i _ -> i < 5) ms @ more)

let faults_stage dir =
  let outcomes = Fault_run.run_matrix ~seed () in
  let matrix = Fault_run.render outcomes in
  print_string matrix;
  write (Filename.concat dir "matrix.txt") matrix;
  write (Filename.concat dir "faults-digest.txt") (Fault_run.matrix_digest outcomes ^ "\n");
  let row (scenario, system) =
    let system = Build.name (system :> Build.system) in
    List.find
      (fun (o : Fault_run.outcome) -> String.equal o.scenario scenario && String.equal o.system system)
      outcomes
  in
  let digests =
    List.map
      (fun key ->
        let o = row key in
        let sub = Filename.concat dir (o.scenario ^ "-" ^ o.system) in
        write (Filename.concat sub "series.csv") (Stats.Series.to_csv o.series);
        write (Filename.concat sub "series.json") (Stats.Series.to_json o.series);
        write (Filename.concat sub "timeline.txt") (Fault_run.timeline_string o);
        series_digest_line o.series)
      series_rows
  in
  write (Filename.concat dir "series-digest.txt") (String.concat "" digests);
  (* each Saturn row's journeys: decomposition and gap CSV beside its
     series, and one blame-digest line pinned by ci/blame-digest.txt *)
  let blames =
    List.filter_map
      (fun (o : Fault_run.outcome) ->
        if not (String.equal o.system (Build.name `Saturn)) then None
        else
          let journeys = Journey.analyze o.probe in
          let blame = Fault_run.blame journeys in
          let sub = Filename.concat dir (o.scenario ^ "-" ^ o.system) in
          write (Filename.concat sub "decomposition.txt")
            (Stats.Table.render (Journey.table journeys) ^ "\n");
          write (Filename.concat sub "gap.csv") (Blame.gap_csv blame);
          Some (o, blame))
      outcomes
  in
  let findings =
    List.filter_map
      (fun (o : Fault_run.outcome) ->
        match o.report.Faults.Checker.violations with
        | [] -> None
        | v :: _ as vs ->
          Some
            (Printf.sprintf "fault matrix %s/%s: %d invariant violation(s), first: %s" o.scenario
               o.system (List.length vs) v.Faults.Checker.what))
      outcomes
    @ List.concat_map
        (fun ((o : Fault_run.outcome), blame) ->
          tiling_findings (Printf.sprintf "fault matrix %s/%s" o.scenario o.system) blame)
        blames
    @ orphan_findings
        (List.map
           (fun (o : Fault_run.outcome) ->
             (Printf.sprintf "fault matrix %s/%s" o.scenario o.system, o.probe))
           outcomes)
  in
  ( findings,
    List.map
      (fun ((o : Fault_run.outcome), b) -> blame_digest_line (o.scenario ^ "-" ^ o.system) b)
      blames )

let smoke_stage dir =
  let r = Obs.smoke ~seed () in
  ignore (Obs.write_artifacts r ~out_dir:dir);
  write (Filename.concat dir "smoke-counters.txt") (Obs.counters_text r);
  write (Filename.concat dir "BENCH_smoke.json") (Obs.bench_json ~seed r);
  ( tiling_findings "smoke" r.Obs.blame
    @ orphan_findings [ ("smoke", r.Obs.probe) ],
    blame_digest_line "smoke" r.Obs.blame )

let shootout_stage dir =
  let rows = List.map (Shootout.run_system ~seed) Shootout.systems in
  Shootout.print rows;
  write (Filename.concat dir "BENCH_shootout.json") (Shootout.to_json ~seed rows)

let plan_stage dir =
  write (Filename.concat dir "plan-default.txt")
    (Scenario.plan_report (Array.of_list (Sim.Ec2.first_n 7)))

let run ?write:(regenerate = false) ~root ~out_dir () =
  let sub name = Filename.concat out_dir name in
  mkdir_p out_dir;
  Printf.printf "gate: fault matrix (seed %d)\n%!" seed;
  let fault_findings, blame_lines = faults_stage (sub "faults") in
  Printf.printf "gate: smoke scenario\n%!";
  let smoke_findings, smoke_line = smoke_stage (sub "smoke") in
  write (sub "faults/blame-digest.txt") (String.concat "" (blame_lines @ [ smoke_line ]));
  Printf.printf "gate: stabilization shootout\n%!";
  shootout_stage (sub "shootout");
  Printf.printf "gate: default plan\n%!";
  plan_stage (sub "plan");
  let baseline_findings =
    if regenerate then begin
      write_baselines ~root ~manifest:out_dir;
      List.iter (fun b -> Printf.printf "gate: wrote %s\n" b.checked_in) baselines;
      []
    end
    else compare ~root ~manifest:out_dir
  in
  smoke_findings @ fault_findings @ baseline_findings
