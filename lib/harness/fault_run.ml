type outcome = {
  scenario : string;
  system : string;
  ops : int;
  vis_mean_ms : float;
  vis_p99_ms : float;
  recovery_ms : float;
  report : Faults.Checker.report;
  digest : string;
  n_events : int;
  registry : Stats.Registry.t;
  series : Stats.Series.t;
  fault_at_us : int option;
  heal_at_us : int option;
  probe : Sim.Probe.t;
}

type system = [ `Saturn | `Eventual | `Eunomia | `Okapi ]

let systems = [ `Saturn; `Eventual; `Eunomia; `Okapi ]

let scenario_names =
  [
    "ser-crash"; "seq-crash"; "partition"; "latency-spike"; "reconfig-graceful"; "reconfig-cut";
    "reconfig-forced"; "reconfig-backup";
  ]

(* the shared chain deployment with three chain replicas per serializer,
   so a head crash heals (§6.1) instead of stalling the subtree; built
   afresh per run *)
let spec () = { (Build.three_site Build.chain_config) with serializer_replicas = 3 }

let cooldown = Sim.Time.of_ms 400

(* the tree's busiest directed edge, from a dry (fault-free) pre-run: the
   latency-spike scenario needs its target fixed before the faulted run *)
let busiest_edge ~seed =
  let spec = spec () in
  let engine = Sim.Engine.create () in
  let metrics = Metrics.create engine ~topo:spec.Build.topo ~dc_sites:spec.Build.dc_sites in
  let api, system = Build.saturn engine spec metrics in
  ignore (Driver.synthetic engine api metrics spec ~seed ~per_dc:2 ~cooldown);
  match Saturn.System.service system with
  | None -> assert false
  | Some service ->
    List.fold_left
      (fun (best, n) (edge, count) -> if count > n then (edge, count) else (best, n))
      ((0, 1), min_int)
      (Saturn.Service.edge_traffic service)
    |> fst

(* plan timings: all inside the measurement window [200ms, 1200ms] *)
let crash_at = Sim.Time.of_ms 500
let fault_at = Sim.Time.of_ms 400
let heal_at = Sim.Time.of_ms 700
let spike_factor = 8.

(* reconfiguration timings: the switch fires mid-window; the forced
   scenario's serializer crash lands shortly before it, so the old tree is
   already broken when the fallback engages *)
let switch_at = Sim.Time.of_ms 500
let pre_switch_crash_at = Sim.Time.of_ms 450

let plan_for ~scenario ~busiest ~dc_sites freg system =
  let open Faults in
  let switch graceful =
    Plan.Switch_config { graceful; config = Build.backup_config ~dc_sites }
  in
  match (scenario, system) with
  | "ser-crash", `Saturn ->
    (* head replica of the middle serializer: chain re-keys, the new head
       redelivers unconfirmed labels, dedup keeps commits exactly-once *)
    Plan.make [ { Plan.at = crash_at; action = Plan.Crash_replica { serializer = "ser1"; replica = 0 } } ]
  | "ser-crash", (`Eventual | `Eunomia | `Okapi) ->
    (* no serializer tree to crash: the fault-free control *)
    Plan.make []
  | "seq-crash", `Eunomia ->
    (* DC 1's sequencer crashes mid-stream, mirroring the ser-crash row:
       local updates keep committing (the sequencer is off the client
       path), remote visibility stalls until failover re-announces *)
    Plan.make [ { Plan.at = crash_at; action = Plan.Crash_replica { serializer = "seq1"; replica = 0 } } ]
  | "seq-crash", (`Saturn | `Eventual | `Okapi) ->
    (* no per-DC sequencer in these systems: the fault-free control *)
    Plan.make []
  | "partition", `Saturn ->
    (* partition the metadata tree away from site 2; bulk data keeps
       flowing (the datastore's channel is reliable, §2) *)
    let metadata (name, _) =
      String.length name >= 5 && (String.sub name 0 5 = "tree." || String.sub name 0 7 = "attach.")
    in
    let cut = List.filter metadata (Registry.links_crossing freg ~side:[ 2 ]) in
    Plan.make
      (List.concat_map
         (fun (name, _) ->
           [
             { Plan.at = fault_at; action = Plan.Cut name };
             { Plan.at = heal_at; action = Plan.Heal name };
           ])
         cut)
  | "partition", (`Eventual | `Eunomia | `Okapi) ->
    (* the baselines replicate over the bulk links themselves *)
    Plan.make
      [
        { Plan.at = fault_at; action = Plan.Partition [ 2 ] };
        { Plan.at = heal_at; action = Plan.Heal_partition [ 2 ] };
      ]
  | "latency-spike", `Saturn ->
    let a, b = busiest in
    let link = Printf.sprintf "tree.s%d->s%d.data" a b in
    Plan.make
      [
        { Plan.at = fault_at; action = Plan.Latency_factor { link; factor = spike_factor } };
        { Plan.at = heal_at; action = Plan.Latency_reset link };
      ]
  | "latency-spike", (`Eventual | `Eunomia | `Okapi) ->
    (* the bulk link between the datacenters the busiest tree edge joins
       (serializer s serves datacenter s on the chain) *)
    let a, b = busiest in
    let link = Printf.sprintf "bulk.dc%d->dc%d" a b in
    Plan.make
      [
        { Plan.at = fault_at; action = Plan.Latency_factor { link; factor = spike_factor } };
        { Plan.at = heal_at; action = Plan.Latency_reset link };
      ]
  | "reconfig-graceful", `Saturn ->
    (* clean graceful epoch change: the marker flushes the old chain and
       the dual-tree window closes on its own *)
    Plan.make [ { Plan.at = switch_at; action = switch true } ]
  | "reconfig-cut", `Saturn ->
    (* graceful switch under fire: the old tree's middle data edge is down
       across the switch, so the epoch-change marker is itself delayed by
       retransmission and the dual-tree window stretches toward the heal *)
    Plan.make
      [
        { Plan.at = fault_at; action = Plan.Cut "tree.s1->s2.data" };
        { Plan.at = switch_at; action = switch true };
        { Plan.at = heal_at; action = Plan.Heal "tree.s1->s2.data" };
      ]
  | "reconfig-forced", `Saturn ->
    (* the old tree loses a whole serializer chain just before the switch;
       the forced path abandons the marker protocol for timestamp order on
       the new tree (§6.2's fallback) *)
    Plan.make
      [
        { Plan.at = pre_switch_crash_at; action = Plan.Crash_serializer "ser1" };
        { Plan.at = switch_at; action = switch false };
      ]
  | "reconfig-backup", `Saturn ->
    (* failover to the pre-computed backup tree while the old tree's
       busiest edge is degraded — §6.2's motivation for keeping backups *)
    let a, b = busiest in
    let link = Printf.sprintf "tree.s%d->s%d.data" a b in
    Plan.make
      [
        { Plan.at = fault_at; action = Plan.Latency_factor { link; factor = spike_factor } };
        { Plan.at = switch_at; action = switch true };
        { Plan.at = heal_at; action = Plan.Latency_reset link };
      ]
  | ( ("reconfig-graceful" | "reconfig-cut" | "reconfig-forced" | "reconfig-backup"),
      (`Eventual | `Eunomia | `Okapi) ) ->
    (* no serializer tree to migrate: the fault-free control *)
    Plan.make []
  | s, _ -> invalid_arg ("Fault_run: unknown scenario " ^ s)

let fault_ref plan =
  match Faults.Plan.last_heal_time plan with
  | Some t -> Some t
  | None ->
    List.fold_left
      (fun acc (e : Faults.Plan.event) ->
        Some (match acc with None -> e.at | Some a -> Sim.Time.max a e.at))
      None (Faults.Plan.events plan)

(* the onset of the fault, for the timeline: the plan's earliest event *)
let fault_onset plan =
  List.fold_left
    (fun acc (e : Faults.Plan.event) ->
      Some (match acc with None -> e.at | Some a -> Sim.Time.min a e.at))
    None (Faults.Plan.events plan)

let run_one ~seed ~scenario ~system ~busiest =
  let spec = spec () in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let probe = Sim.Probe.create ~keep:true () in
  (* the checker folds events as they are recorded: no post-run pass *)
  let checker = Faults.Checker.create () in
  Sim.Probe.subscribe probe (Faults.Checker.step checker);
  let freg = Faults.Registry.create () in
  let { Build.topo; dc_sites; _ } = spec in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let recovery = ref None in
  let series = Stats.Series.create () in
  let (_ : int array array) = Blame.observe_series engine metrics series spec in
  let ops, plan =
    Sim.Probe.with_probe probe (fun () ->
        (* the registry goes to Saturn rows only, so the baseline rows count
           no meta bytes: see [outcome.registry] *)
        let meta_registry = if system = `Saturn then Some registry else None in
        let api =
          Build.make ?registry:meta_registry ~series ~faults:freg (system :> Build.system) engine
            spec metrics
        in
        let plan = plan_for ~scenario ~busiest ~dc_sites freg system in
        let (_ : Faults.Injector.t) = Faults.Injector.arm ~registry engine freg plan in
        (* annotate the series with the plan's marks, deduplicated (a
           partition cuts several links at one instant): the timeline and
           the digest-covered CSV/JSON dumps render them *)
        List.iter
          (fun (us, name) -> Stats.Series.annotate series ~us name)
          (List.sort_uniq compare
             (List.map
                (fun (e : Faults.Plan.event) ->
                  ( Sim.Time.to_us e.at,
                    match e.action with
                    | Faults.Plan.Switch_config { graceful = true; _ } -> "switch.graceful"
                    | Faults.Plan.Switch_config { graceful = false; _ } -> "switch.forced"
                    | Faults.Plan.Heal _ | Faults.Plan.Heal_partition _
                    | Faults.Plan.Latency_reset _ -> "heal"
                    | _ -> "fault" ))
                (Faults.Plan.events plan)));
        (match fault_ref plan with
        | None -> ()
        | Some fr ->
          (* recovery = drain time of the fault-era backlog: the last
             pre-heal-originated update to become visible after the heal *)
          Metrics.subscribe metrics (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time ~value:_ ->
              let now = Sim.Engine.now engine in
              if Sim.Time.compare origin_time fr <= 0 && Sim.Time.compare now fr > 0 then
                let lag = Sim.Time.sub now fr in
                match !recovery with
                | Some prev when Sim.Time.compare prev lag >= 0 -> ()
                | _ -> recovery := Some lag));
        let r = Driver.synthetic engine api metrics spec ~seed ~per_dc:2 ~cooldown in
        (r.Driver.ops_completed, plan))
  in
  Stats.Series.seal series ~now:(Sim.Engine.now engine);
  let recovery_ms =
    match !recovery with None -> 0. | Some lag -> Sim.Time.to_ms_float lag
  in
  List.iter
    (fun (k, n) -> Stats.Registry.incr_by (Stats.Registry.counter registry ("probe." ^ k)) n)
    (Sim.Probe.counts_by_kind probe);
  let vis = Metrics.visibility metrics in
  {
    scenario;
    system = Build.name (system :> Build.system);
    ops;
    vis_mean_ms = Stats.Sample.mean vis;
    vis_p99_ms = (if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis 99.);
    recovery_ms;
    report = Faults.Checker.report checker;
    digest = Sim.Probe.digest probe;
    n_events = Sim.Probe.count probe;
    registry;
    series;
    fault_at_us = Option.map Sim.Time.to_us (fault_onset plan);
    heal_at_us = Option.map Sim.Time.to_us (fault_ref plan);
    probe;
  }

let run_scenario ?(seed = 42) ~scenario ~system () =
  if not (List.mem scenario scenario_names) then
    invalid_arg ("Fault_run.run_scenario: unknown scenario " ^ scenario);
  (* only the latency-spike and backup-failover plans need the busiest
     edge; skip the dry pre-run otherwise *)
  let busiest =
    if List.mem scenario [ "latency-spike"; "reconfig-backup" ] then busiest_edge ~seed
    else (0, 1)
  in
  run_one ~seed ~scenario ~system ~busiest

(* blame the scenario's own trace against the same deployment's optimum:
   the spec (topology, bulk factor) is this module's, so the CLI cannot
   pair a fault trace with the wrong matrix *)
let blame journeys =
  let { Build.topo; dc_sites; bulk_factor; _ } = spec () in
  Blame.analyze ~optimal:(Blame.optimal_matrix ~topo ~dc_sites ~bulk_factor) journeys

let recovery_on o name =
  match (o.fault_at_us, o.heal_at_us) with
  | Some fault_at_us, Some heal_at_us ->
    let window_us = Sim.Time.to_us (Stats.Series.window o.series) in
    (match Stats.Series.kind_of o.series name with
    | None -> None
    | Some _ ->
      Stats.Series.recovery_window ~window_us ~fault_at_us ~heal_at_us ~slack:1.0
        (Stats.Series.primary o.series name)
      |> Option.map (fun w ->
             (* quantized to window starts, like the series itself *)
             (float_of_int (w * window_us) -. float_of_int heal_at_us) /. 1000.))
  | _ -> None

let series_recovery_ms o = recovery_on o "series.vis_ms"
let gap_recovery_ms o = recovery_on o "series.gap_ms"

let recovery_agrees o =
  match (series_recovery_ms o, o.heal_at_us) with
  | Some s_ms, Some heal ->
    let window_us = Sim.Time.to_us (Stats.Series.window o.series) in
    (* both recovery points, quantized to the window that contains them:
       the series can only answer at window granularity *)
    let s_win = (heal + int_of_float (s_ms *. 1000.)) / window_us in
    let d_win = (heal + int_of_float (o.recovery_ms *. 1000.)) / window_us in
    Some (abs (s_win - d_win) <= 1)
  | _ -> None

let timeline_string o =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sr = o.series in
  let n = Stats.Series.n_windows sr in
  if n = 0 then pf "%s/%s: no closed windows\n" o.scenario o.system
  else begin
    let window_us = Sim.Time.to_us (Stats.Series.window sr) in
    pf "%s/%s timeline: %d windows x %d ms\n" o.scenario o.system n (window_us / 1000);
    let names = Stats.Series.names sr in
    let name_w = List.fold_left (fun a s -> max a (String.length s)) 0 names in
    List.iter
      (fun name ->
        let v = Stats.Series.primary sr name in
        let peak = Array.fold_left max 0. v in
        pf "  %-*s |%s| peak %.1f\n" name_w name (Stats.Series.sparkline v) peak)
      names;
    let switches =
      List.filter
        (fun (_, name) -> String.length name >= 7 && String.sub name 0 7 = "switch.")
        (Stats.Series.annotations sr)
    in
    (if o.fault_at_us <> None || switches <> [] then begin
       let marks = Bytes.make n ' ' in
       let mark us c =
         let i = us / window_us in
         if i >= 0 && i < n then Bytes.set marks i c
       in
       Option.iter (fun f -> mark f '^') o.fault_at_us;
       Option.iter (fun h -> mark h '^') o.heal_at_us;
       (* switch marks win a shared window: the epoch boundary is the rarer
          and more interesting event *)
       List.iter
         (fun (us, name) -> mark us (if String.equal name "switch.forced" then 'F' else 'S'))
         switches;
       let legend =
         match (o.fault_at_us <> None, switches <> []) with
         | true, true -> "^ = fault / heal, S/F = switch (graceful/forced)"
         | false, true -> "S/F = switch (graceful/forced)"
         | _ -> "^ = fault / heal"
       in
       pf "  %-*s |%s| %s\n" name_w "" (Bytes.to_string marks) legend
     end);
    (match series_recovery_ms o with
    | Some ms ->
      pf
        "  series recovery (vis p99 back to steady state): %.1f ms after heal; drain-based \
         faults.recovery_ms: %.1f; same window +/-1: %s\n"
        ms o.recovery_ms
        (match recovery_agrees o with Some true -> "yes" | Some false -> "NO" | None -> "n/a")
    | None -> ());
    match gap_recovery_ms o with
    | Some ms ->
      pf "  gap recovery (optimality gap p99 back to steady state): %.1f ms after heal\n" ms
    | None -> ()
  end;
  Buffer.contents buf

(* one row per (scenario, system) pair that exercises something: every
   scenario runs Saturn and the eventual control, the sequencer crash adds
   the Eunomia row it was built for, and the partition adds an Okapi row
   (its stabilization rounds must survive a cut bulk fabric) *)
let matrix_rows =
  [
    ("ser-crash", `Saturn);
    ("ser-crash", `Eventual);
    ("seq-crash", `Eunomia);
    ("partition", `Saturn);
    ("partition", `Eventual);
    ("partition", `Okapi);
    ("latency-spike", `Saturn);
    ("latency-spike", `Eventual);
    (* reconfiguration is Saturn-only: the baselines have no tree to
       migrate, so a control row would be a plain fault-free run *)
    ("reconfig-graceful", `Saturn);
    ("reconfig-cut", `Saturn);
    ("reconfig-forced", `Saturn);
    ("reconfig-backup", `Saturn);
  ]

let run_matrix ?(seed = 42) () =
  let busiest = busiest_edge ~seed in
  List.map (fun (scenario, system) -> run_one ~seed ~scenario ~system ~busiest) matrix_rows

let matrix_digest outcomes =
  Digest.to_hex (Digest.string (String.concat "," (List.map (fun o -> o.digest) outcomes)))

let violations outcomes =
  List.fold_left (fun n o -> n + List.length o.report.Faults.Checker.violations) 0 outcomes

let render outcomes =
  let table =
    Stats.Table.create ~title:"fault scenario matrix"
      ~columns:
        [
          "scenario"; "system"; "ops"; "vis ms"; "p99 ms"; "recovery ms"; "gap rec ms"; "resends";
          "drops"; "head-chg"; "switch"; "violations";
        ]
  in
  List.iter
    (fun o ->
      let r = o.report in
      Stats.Table.add_row table
        [
          o.scenario;
          o.system;
          string_of_int o.ops;
          Printf.sprintf "%.1f" o.vis_mean_ms;
          Printf.sprintf "%.1f" o.vis_p99_ms;
          Printf.sprintf "%.1f" o.recovery_ms;
          (match gap_recovery_ms o with Some ms -> Printf.sprintf "%.1f" ms | None -> "-");
          string_of_int r.Faults.Checker.resends;
          string_of_int (r.Faults.Checker.drops_cut + r.Faults.Checker.drops_down);
          string_of_int r.Faults.Checker.head_changes;
          string_of_int r.Faults.Checker.switches;
          string_of_int (List.length r.Faults.Checker.violations);
        ])
    outcomes;
  let reports =
    List.filter_map
      (fun o ->
        if Faults.Checker.ok o.report then None
        else Some (Format.asprintf "%s/%s:\n%a\n" o.scenario o.system Faults.Checker.pp o.report))
      outcomes
  in
  String.concat ""
    ((Stats.Table.render table :: reports)
    @ [
        Printf.sprintf "matrix digest: %s (%d probe events)\n" (matrix_digest outcomes)
          (List.fold_left (fun n o -> n + o.n_events) 0 outcomes);
      ])
