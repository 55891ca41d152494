(* saturn-cli: drive the Saturn reproduction from the command line.

   The subcommand surface is single-sourced in Harness.Cli_spec: every
   Cmd.info doc below pulls its summary from there, the top-level help
   renders Cli_spec.usage, and main asserts the registered command names
   equal the spec before dispatch. *)

open Cmdliner

let region_conv =
  let parse s =
    match Sim.Topology.site_of_name Sim.Ec2.topology (String.uppercase_ascii s) with
    | site -> Ok site
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown region %S (use NV NC O I F T S)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Sim.Topology.name Sim.Ec2.topology s))

(* ---- matrix ---------------------------------------------------------------- *)

let matrix_cmd =
  let doc = Harness.Cli_spec.summary "matrix" in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(
      const (fun () ->
          Sim.Topology.pp_matrix Format.std_formatter Sim.Ec2.topology;
          Format.print_flush ())
      $ const ())

(* ---- plan ------------------------------------------------------------------ *)

let plan regions seed =
  let dc_sites =
    match regions with [] -> Array.of_list (Sim.Ec2.first_n 7) | rs -> Array.of_list rs
  in
  if Array.length dc_sites < 2 then (prerr_endline "need at least 2 regions"; exit 2);
  print_string (Harness.Scenario.plan_report ~seed dc_sites)

let plan_cmd =
  let doc = Harness.Cli_spec.summary "plan" in
  let regions =
    Arg.(value & pos_all region_conv [] & info [] ~docv:"REGION" ~doc:"Regions (NV NC O I F T S).")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Deterministic search seed.") in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const plan $ regions $ seed)

(* ---- bench ------------------------------------------------------------------ *)

let system_conv =
  Arg.enum (List.map (fun s -> (Harness.Build.name s, s)) Harness.Scenario.systems)

let correlation_conv =
  Arg.enum
    [
      ("exponential", Workload.Keyspace.Exponential);
      ("proportional", Workload.Keyspace.Proportional);
      ("uniform", Workload.Keyspace.Uniform 4);
      ("full", Workload.Keyspace.Full);
    ]

let bench systems n_dcs correlation value_size read_pct remote_pct clients measure_s =
  let setup =
    { Harness.Scenario.default_setup with
      Harness.Scenario.n_dcs;
      correlation;
      value_size;
      read_ratio = float_of_int read_pct /. 100.;
      remote_read_ratio = float_of_int remote_pct /. 100.;
      clients_per_dc = clients;
      measure = Sim.Time.of_sec measure_s;
    }
  in
  let systems = match systems with [] -> Harness.Scenario.all_systems | s -> s in
  let table =
    Stats.Table.create ~title:"results"
      ~columns:[ "system"; "ops/s"; "visibility ms"; "extra ms"; "p90 ms" ]
  in
  List.iter
    (fun sys ->
      let o = Harness.Scenario.run sys setup in
      Stats.Table.add_row table
        [
          Harness.Build.label sys;
          Printf.sprintf "%.0f" o.Harness.Scenario.throughput;
          Printf.sprintf "%.1f" o.Harness.Scenario.mean_visibility_ms;
          Printf.sprintf "%.1f" o.Harness.Scenario.extra_visibility_ms;
          Printf.sprintf "%.1f" o.Harness.Scenario.p90_visibility_ms;
        ])
    systems;
  Stats.Table.print table

let bench_cmd =
  let doc = Harness.Cli_spec.summary "bench" in
  let systems =
    Arg.(value & opt_all system_conv [] & info [ "s"; "system" ] ~doc:"System(s) to run; default all.")
  in
  let n_dcs = Arg.(value & opt int 7 & info [ "dcs" ] ~doc:"Number of datacenters (3-7).") in
  let correlation =
    Arg.(value & opt correlation_conv Workload.Keyspace.Exponential
         & info [ "correlation" ] ~doc:"exponential|proportional|uniform|full")
  in
  let value_size = Arg.(value & opt int 2 & info [ "value-size" ] ~doc:"Value size in bytes.") in
  let read_pct = Arg.(value & opt int 90 & info [ "reads" ] ~doc:"Read percentage.") in
  let remote_pct = Arg.(value & opt int 0 & info [ "remote-reads" ] ~doc:"Remote-read percentage of reads.") in
  let clients = Arg.(value & opt int 40 & info [ "clients" ] ~doc:"Clients per datacenter.") in
  let measure = Arg.(value & opt float 1.0 & info [ "measure" ] ~doc:"Measured window, simulated seconds.") in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const bench $ systems $ n_dcs $ correlation $ value_size $ read_pct $ remote_pct $ clients $ measure)

(* ---- social ------------------------------------------------------------------ *)

let social systems users max_replicas =
  let setup =
    { Harness.Scenario.default_social_setup with
      Harness.Scenario.n_users = users;
      max_replicas;
    }
  in
  let systems = match systems with [] -> Harness.Scenario.all_systems | s -> s in
  let table =
    Stats.Table.create ~title:"Facebook-like benchmark"
      ~columns:[ "system"; "ops/s"; "visibility ms"; "extra ms" ]
  in
  List.iter
    (fun sys ->
      let o = Harness.Scenario.run_social sys setup in
      Stats.Table.add_row table
        [
          Harness.Build.label sys;
          Printf.sprintf "%.0f" o.Harness.Scenario.throughput;
          Printf.sprintf "%.1f" o.Harness.Scenario.mean_visibility_ms;
          Printf.sprintf "%.1f" o.Harness.Scenario.extra_visibility_ms;
        ])
    systems;
  Stats.Table.print table

let social_cmd =
  let doc = Harness.Cli_spec.summary "social" in
  let systems =
    Arg.(value & opt_all system_conv [] & info [ "s"; "system" ] ~doc:"System(s) to run; default all.")
  in
  let users = Arg.(value & opt int 3500 & info [ "users" ] ~doc:"Users in the social graph.") in
  let max_replicas = Arg.(value & opt int 5 & info [ "max-replicas" ] ~doc:"Replication cap per user.") in
  Cmd.v (Cmd.info "social" ~doc) Term.(const social $ systems $ users $ max_replicas)

(* ---- trace ------------------------------------------------------------------- *)

let trace_record path n_dcs ops seed =
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rng = Sim.Rng.create ~seed in
  let n_keys = 100 * n_dcs in
  let rmap =
    Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites ~n_keys Workload.Keyspace.Exponential
  in
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys; seed }
      ~rmap ~topo:Sim.Ec2.topology ~dc_sites
  in
  let clients = List.init (3 * n_dcs) Fun.id in
  let t =
    Workload.Trace.record ~clients
      ~next:(fun ~client -> Workload.Synthetic.next w ~dc:(client mod n_dcs))
      ~ops_per_client:ops
  in
  Workload.Trace.save t ~path;
  Printf.printf "recorded %d ops for %d clients over %d datacenters to %s\n"
    (ops * List.length clients) (List.length clients) n_dcs path

let trace_replay path n_dcs sys =
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let trace = Workload.Trace.load ~path in
  let n_keys = 100 * n_dcs in
  let rng = Sim.Rng.create ~seed:1 in
  let rmap =
    Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites ~n_keys Workload.Keyspace.Exponential
  in
  let engine = Sim.Engine.create () in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let api = Harness.Build.make sys engine spec metrics in
  let total = Workload.Trace.remaining trace in
  let clients = List.init (3 * n_dcs) (fun i ->
      Harness.Client.create ~id:i ~home_site:dc_sites.(i mod n_dcs) ~preferred_dc:(i mod n_dcs))
  in
  let done_ops = ref 0 in
  let rec loop (c : Harness.Client.t) () =
    match Workload.Trace.next trace ~client:c.Harness.Client.id with
    | None -> ()
    | Some (Workload.Op.Read { key }) -> api.Harness.Api.read c ~key ~k:(fun _ -> incr done_ops; loop c ())
    | Some (Workload.Op.Write { key; value }) ->
      api.Harness.Api.update c ~key ~value ~k:(fun () -> incr done_ops; loop c ())
    | Some (Workload.Op.Remote_read { key; at }) ->
      api.Harness.Api.migrate c ~dest_dc:at ~k:(fun () ->
          api.Harness.Api.read c ~key ~k:(fun _ ->
              api.Harness.Api.migrate c ~dest_dc:c.Harness.Client.preferred_dc ~k:(fun () ->
                  incr done_ops; loop c ())))
  in
  List.iter (fun c -> api.Harness.Api.attach c ~dc:c.Harness.Client.preferred_dc ~k:(loop c)) clients;
  Sim.Engine.run ~until:(Sim.Time.of_sec 120.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run ~until:(Sim.Time.of_sec 125.) engine;
  Printf.printf "replayed %d/%d ops in %.3fs simulated; visibility mean %.1f ms over %d remote updates\n"
    !done_ops total
    (Sim.Time.to_sec_float (Sim.Engine.now engine))
    (Stats.Sample.mean (Harness.Metrics.visibility metrics))
    (Harness.Metrics.visible_count metrics)

(* ---- obs -------------------------------------------------------------------- *)

let obs seed out spans =
  let r = Harness.Obs.smoke ~seed () in
  Stats.Registry.print ~title:(Printf.sprintf "smoke seed=%d" seed) r.Harness.Obs.registry;
  Printf.printf "trace: %d events, digest %s\n" r.Harness.Obs.n_events r.Harness.Obs.digest;
  Option.iter
    (fun dir ->
      Printf.printf "wrote %s\n" (String.concat ", " (Harness.Obs.write_artifacts r ~out_dir:dir)))
    out;
  if spans then begin
    let report = r.Harness.Obs.journeys in
    print_string (Stats.Table.render (Harness.Journey.table report) ^ "\n");
    match Harness.Journey.check report with
    | Ok () ->
      Printf.printf "decomposition check: OK (%d journeys tile exactly)\n"
        (List.length report.Harness.Journey.journeys)
    | Error mismatches ->
      Printf.printf "decomposition check: FAILED\n";
      List.iter (fun m -> Printf.printf "  %s\n" m) mismatches;
      exit 1
  end

let obs_cmd =
  let doc = Harness.Cli_spec.summary "obs" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write the artifact set (trace, decomposition table, series dumps, \
                 reconfig.timeline.txt) under DIR.")
  in
  let spans =
    Arg.(value & flag & info [ "spans" ]
           ~doc:"Print the per-label visibility-latency decomposition table and verify that every \
                 journey's segments sum to its measured latency.")
  in
  Cmd.v (Cmd.info "obs" ~doc) Term.(const obs $ seed $ out $ spans)

(* ---- bench-check ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let bench_check baseline_path fresh_path =
  let baseline =
    try read_file baseline_path
    with Sys_error e -> Printf.eprintf "bench-check: %s\n" e; exit 2
  in
  let fresh =
    try read_file fresh_path with Sys_error e -> Printf.eprintf "bench-check: %s\n" e; exit 2
  in
  let tolerance = Harness.Engine_bench.tolerance in
  let r =
    try Harness.Engine_bench.check ~baseline ~fresh ~tolerance
    with Failure e -> Printf.eprintf "bench-check: %s\n" e; exit 2
  in
  List.iter (fun n -> Printf.printf "  wall  %s\n" n) r.Harness.Engine_bench.notes;
  match r.Harness.Engine_bench.failures with
  | [] ->
    Printf.printf "bench-check: OK (%s vs %s, tolerance %.0f%%)\n" fresh_path baseline_path
      (tolerance *. 100.)
  | failures ->
    Printf.printf "bench-check: FAILED\n";
    List.iter (fun f -> Printf.printf "  det   %s\n" f) failures;
    Printf.printf
      "hint: if the drift is intended (engine or workload change), regenerate every checked-in \
       baseline with: ci/regen.sh\n";
    exit 1

let bench_check_cmd =
  let doc = Harness.Cli_spec.summary "bench-check" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compare a fresh engine-bench JSON (bench -- engine --out) against the checked-in \
         baseline. Deterministic fields (counts, words/op) gate hard within 2% (an absolute \
         floor of the same magnitude for near-zero baselines); wall-clock fields are reported \
         but never fail the check.";
    ]
  in
  let baseline =
    Arg.(required & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Checked-in baseline (BENCH_engine.json).")
  in
  let fresh =
    Arg.(required & opt (some string) None & info [ "fresh" ] ~docv:"FILE"
           ~doc:"Freshly generated engine-bench JSON.")
  in
  Cmd.v (Cmd.info "bench-check" ~doc ~man) Term.(const bench_check $ baseline $ fresh)

(* ---- series ------------------------------------------------------------------ *)

(* the accepted scenario names and their help text come from the one list
   in Harness.Fault_run, so the CLI can never drift from the matrix again *)
let scenario_enum = List.map (fun s -> (s, s)) (Harness.Fault_run.scenario_names @ [ "smoke" ])
let scenario_doc = String.concat "|" (List.map fst scenario_enum)

(* likewise the fault-matrix systems, named through Harness.Build *)
let system_enum =
  List.map (fun s -> (Harness.Build.name (s :> Harness.Build.system), s)) Harness.Fault_run.systems

let system_doc =
  String.concat "|" (List.map fst system_enum) ^ " (ignored by the smoke scenario)."

let series_of_run ~scenario ~system ~seed =
  if String.equal scenario "smoke" then
    ((Harness.Obs.smoke ~seed ()).Harness.Obs.series, None)
  else
    let o = Harness.Fault_run.run_scenario ~seed ~scenario ~system () in
    (o.Harness.Fault_run.series, Some o)

let series scenario system seed out =
  let sr, outcome = series_of_run ~scenario ~system ~seed in
  (match outcome with
  | Some o -> print_string (Harness.Fault_run.timeline_string o)
  | None ->
    Stats.Table.print
      (Stats.Series.to_table ~title:(Printf.sprintf "smoke series (seed %d)" seed) sr));
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      write (Filename.concat dir "series.csv") (Stats.Series.to_csv sr);
      write (Filename.concat dir "series.json") (Stats.Series.to_json sr);
      Option.iter
        (fun o -> write (Filename.concat dir "timeline.txt") (Harness.Fault_run.timeline_string o))
        outcome)
    out;
  print_string (Harness.Gate.series_digest_line sr)

let series_cmd =
  let doc = Harness.Cli_spec.summary "series" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run one scenario and print per-series sparklines (queue depths, apply throughput, \
         visibility p99 per 50 sim-ms window) with fault/heal and epoch-switch marks, the \
         series-derived recovery point cross-checked against the drain-based recovery metric.";
    ]
  in
  let scenario =
    Arg.(value & opt (enum scenario_enum) "partition" & info [ "scenario" ] ~doc:scenario_doc)
  in
  let system =
    Arg.(value & opt (enum system_enum) `Saturn & info [ "system" ] ~doc:system_doc)
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write series.csv, series.json and (for fault scenarios) timeline.txt under DIR \
                 (created if missing).")
  in
  Cmd.v (Cmd.info "series" ~doc ~man)
    Term.(const series $ scenario $ system $ seed $ out)

(* ---- faults ------------------------------------------------------------------ *)

let faults seed =
  let outcomes = Harness.Fault_run.run_matrix ~seed () in
  print_string (Harness.Fault_run.render outcomes);
  let v = Harness.Fault_run.violations outcomes in
  if v > 0 then begin
    Printf.printf "invariant check: %d violation(s)\n" v;
    exit 1
  end;
  Printf.printf "invariant check: OK\n"

let faults_cmd =
  let doc = Harness.Cli_spec.summary "faults" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run the fault-injection scenario matrix (serializer crash, transient partition, latency \
         spike, and the reconfig-* epoch-switch rows) for Saturn and the baselines, check \
         invariants — including the cross-epoch ones — and print recovery metrics.";
    ]
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.") in
  Cmd.v (Cmd.info "faults" ~doc ~man) Term.(const faults $ seed)

let trace_cmd =
  let doc = Harness.Cli_spec.summary "trace" in
  let record =
    let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
    let n_dcs = Arg.(value & opt int 3 & info [ "dcs" ] ~doc:"Datacenters.") in
    let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Operations per client.") in
    let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Generator seed.") in
    Cmd.v (Cmd.info "record" ~doc:"Record a synthetic trace to FILE.")
      Term.(const trace_record $ path $ n_dcs $ ops $ seed)
  in
  let replay =
    let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
    let n_dcs = Arg.(value & opt int 3 & info [ "dcs" ] ~doc:"Datacenters (must match the recording).") in
    let sys =
      Arg.(value & opt system_conv `Saturn & info [ "s"; "system" ] ~doc:"System.")
    in
    Cmd.v (Cmd.info "replay" ~doc:"Replay FILE against a system.")
      Term.(const trace_replay $ path $ n_dcs $ sys)
  in
  Cmd.group (Cmd.info "trace" ~doc) [ record; replay ]

(* ---- blame ------------------------------------------------------------------- *)

let blame_report ~scenario ~system ~seed =
  if String.equal scenario "smoke" then (Harness.Obs.smoke ~seed ()).Harness.Obs.blame
  else
    Harness.Fault_run.blame (Harness.Fault_run.run_scenario ~seed ~scenario ~system ())

let blame scenario system seed top out =
  let r = blame_report ~scenario ~system ~seed in
  print_string (Harness.Blame.render ~top r);
  (* the tiling invariant is not optional: a blame table whose parts do
     not sum to the gap is a wrong answer, not a partial one *)
  (match Harness.Blame.check r with
  | Ok () ->
    Printf.printf "blame check: OK (%d journeys, every blame sums to its gap)\n"
      (List.length r.Harness.Blame.blamed)
  | Error mismatches ->
    Printf.printf "blame check: FAILED\n";
    List.iter (fun m -> Printf.printf "  %s\n" m) mismatches;
    exit 1);
  (match out with
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write name s =
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    write "blame.txt" (Harness.Blame.render ~top r);
    write "gap.csv" (Harness.Blame.gap_csv r)
  | None -> ());
  Printf.printf "blame digest: %s (%d journeys)\n" (Harness.Blame.digest r)
    (List.length r.Harness.Blame.blamed)

let blame_cmd =
  let doc = Harness.Cli_spec.summary "blame" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replay one scenario's trace through the journey decomposition, compute each complete \
         journey's optimal visibility from the topology's shortest bulk path, and attribute the \
         gap (visibility minus optimal) to sink hold, serializer chains, configured delays, \
         proxy ordering and off-optimal-route transit. Prints the per-part blame table, the \
         culprit ranking by tail gap, and the top-K slowest journeys as annotated paths. The \
         exact-tiling check (every journey's parts sum to its gap) always runs and fails the \
         command on a mismatch.";
    ]
  in
  let scenario =
    Arg.(value & opt (enum scenario_enum) "smoke" & info [ "scenario" ] ~doc:scenario_doc)
  in
  let system =
    Arg.(value & opt (enum system_enum) `Saturn & info [ "system" ] ~doc:system_doc)
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.") in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc:"Annotated slowest journeys to print.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write blame.txt and gap.csv under DIR (created if missing).")
  in
  Cmd.v (Cmd.info "blame" ~doc ~man)
    Term.(const blame $ scenario $ system $ seed $ top $ out)

(* ---- diff -------------------------------------------------------------------- *)

let diff a b =
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  let exists p =
    if not (Sys.file_exists p) then begin
      Printf.eprintf "diff: no such file or directory: %s\n" p;
      exit 2
    end
  in
  exists a;
  exists b;
  match (is_dir a, is_dir b) with
  | true, true -> (
    match Harness.Diff.dirs a b with
    | [] -> Printf.printf "identical: %s and %s agree file by file\n" a b
    | findings ->
      List.iter (fun f -> print_endline (Harness.Diff.render f)) findings;
      exit 1)
  | false, false -> (
    match Harness.Diff.files ~a ~b with
    | Harness.Diff.Same -> Printf.printf "identical: %s and %s\n" a b
    | Harness.Diff.Differs f ->
      print_endline (Harness.Diff.render f);
      exit 1)
  | _ ->
    Printf.eprintf "diff: %s and %s must both be files or both be directories\n" a b;
    exit 2

let diff_cmd =
  let doc = Harness.Cli_spec.summary "diff" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compare two artifact files or directories from double runs of the same experiment and \
         report the first diverging unit of meaning instead of a raw byte diff: the first \
         diverging window for series CSVs (named by series and window start), the first drifted \
         or missing counter for counter files, the first diverging journey and column for gap \
         CSVs, and the first differing line otherwise. Exits 1 on any divergence.";
    ]
  in
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
  Cmd.v (Cmd.info "diff" ~doc ~man) Term.(const diff $ a $ b)

(* ---- gate -------------------------------------------------------------------- *)

let gate out write =
  match Harness.Gate.run ~write ~root:"." ~out_dir:out () with
  | [] ->
    Printf.printf "gate: OK (manifest under %s%s)\n" out
      (if write then "; checked-in baselines regenerated" else "")
  | findings ->
    Printf.printf "gate: FAILED (%d finding(s))\n" (List.length findings);
    List.iter (fun f -> Printf.printf "  %s\n" f) findings;
    if not write then
      Printf.printf
        "hint: if the drift is expected (new instrumentation, changed batching), regenerate the \
         checked-in baselines with: ci/regen.sh\n";
    exit 1

let gate_cmd =
  let doc = Harness.Cli_spec.summary "gate" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run the fault matrix, the smoke scenario, the stabilization shootout and the default \
         plan once each at seed 42, write their artifacts as a manifest under DIR, check \
         journey and blame tiling on the smoke run and every Saturn matrix row and the fault \
         invariants, and compare the six checked-in \
         baselines (smoke counters within 25%, BENCH_shootout.json within 2% per row and \
         metric, then every byte). Reports every finding; exits 1 on any.";
    ]
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write the manifest under DIR (created if missing).")
  in
  let write =
    Arg.(value & flag & info [ "write" ]
           ~doc:"Regenerate the checked-in baselines from this run instead of comparing them; \
                 the run's own checks still apply. Run from the repository root.")
  in
  Cmd.v (Cmd.info "gate" ~doc ~man) Term.(const gate $ out $ write)

(* ---- main -------------------------------------------------------------------- *)

let () =
  let doc = "Saturn (EuroSys '17) reproduction toolkit" in
  let man =
    [
      `S Manpage.s_description;
      `P "Subcommands (from Harness.Cli_spec, the single source of the surface):";
      `Pre (Harness.Cli_spec.usage ());
    ]
  in
  let info = Cmd.info "saturn-cli" ~version:"1.0.0" ~doc ~man in
  let cmds =
    [ matrix_cmd; plan_cmd; bench_cmd; bench_check_cmd; social_cmd; trace_cmd; obs_cmd;
      faults_cmd; series_cmd; blame_cmd; diff_cmd; gate_cmd ]
  in
  (* the registered surface must equal the spec — a drift in either
     direction is a build bug, caught before any dispatch *)
  let registered = List.sort String.compare (List.map Cmd.name cmds) in
  let spec = List.sort String.compare Harness.Cli_spec.names in
  if registered <> spec then begin
    Printf.eprintf "saturn-cli: subcommands diverge from Harness.Cli_spec\n  registered: %s\n  spec: %s\n"
      (String.concat " " registered) (String.concat " " spec);
    exit 2
  end;
  exit (Cmd.eval (Cmd.group info cmds))
