(* Tests for the measurement harness: metrics windowing, the closed-loop
   driver, and an end-to-end scenario smoke check. *)

let test_metrics_windowing () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 2) in
  let m = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  Harness.Metrics.set_window m ~start_at:(Sim.Time.of_ms 10) ~end_at:(Sim.Time.of_ms 20);
  let observe () =
    Harness.Metrics.on_visible m ~dc:1 ~key:0 ~origin_dc:0
      ~origin_time:(Sim.Time.sub (Sim.Engine.now engine) (Sim.Time.of_ms 40))
      ~value:(Kvstore.Value.make ~payload:0 ~size_bytes:1)
  in
  observe (); (* t=0: outside *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 15) observe; (* inside *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 30) observe; (* outside *)
  Sim.Engine.run engine;
  Alcotest.(check int) "only in-window observations" 1 (Harness.Metrics.visible_count m);
  (* visibility 40ms over a 37ms optimal path -> extra 3ms *)
  Alcotest.(check (float 0.01)) "raw latency" 40.
    (Stats.Sample.mean (Harness.Metrics.visibility m));
  Alcotest.(check (float 0.01)) "extra latency" 3.
    (Stats.Sample.mean (Harness.Metrics.extra_visibility m))

let test_metrics_subscribe_ignores_window () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 2) in
  let m = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  Harness.Metrics.set_window m ~start_at:(Sim.Time.of_ms 10) ~end_at:(Sim.Time.of_ms 20);
  let seen = ref 0 in
  Harness.Metrics.subscribe m (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time:_ ~value:_ -> incr seen);
  Harness.Metrics.on_visible m ~dc:1 ~key:0 ~origin_dc:0 ~origin_time:Sim.Time.zero
    ~value:(Kvstore.Value.make ~payload:0 ~size_bytes:1);
  Alcotest.(check int) "observer fired outside window" 1 !seen;
  Alcotest.(check int) "sample not recorded" 0 (Harness.Metrics.visible_count m)

let test_driver_counts_window_only () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 2) in
  let rmap = Kvstore.Replica_map.full ~n_dcs:2 ~n_keys:8 in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let api = Harness.Build.make `Eventual engine spec metrics in
  let clients = Harness.Driver.make_clients ~dc_sites ~per_dc:2 in
  Alcotest.(check int) "client count" 4 (List.length clients);
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys = 8 }
      ~rmap ~topo:Sim.Ec2.topology ~dc_sites
  in
  let result =
    Harness.Driver.run engine api metrics ~clients
      ~next_op:(fun c -> Workload.Synthetic.next w ~dc:c.Harness.Client.preferred_dc)
      ~warmup:(Sim.Time.of_ms 100) ~measure:(Sim.Time.of_ms 500) ~cooldown:(Sim.Time.of_ms 100)
  in
  Alcotest.(check bool) "positive throughput" true (result.Harness.Driver.throughput > 0.);
  (* windowed ops must be a strict subset of total ops *)
  let total = List.fold_left (fun acc c -> acc + c.Harness.Client.total) 0 clients in
  Alcotest.(check bool) "warmup/cooldown excluded" true (result.Harness.Driver.ops_completed < total)

let test_scenario_smoke () =
  (* a tiny comparative run must preserve the paper's headline ordering:
     eventual >= saturn > cure on throughput; saturn extra << gentlerain *)
  let setup =
    { Harness.Scenario.default_setup with
      Harness.Scenario.n_dcs = 3;
      n_keys = 60;
      clients_per_dc = 15;
      measure = Sim.Time.of_ms 600;
      warmup = Sim.Time.of_ms 200;
      cooldown = Sim.Time.of_ms 100;
    }
  in
  let ev = Harness.Scenario.run `Eventual setup in
  let sat = Harness.Scenario.run `Saturn setup in
  let gr = Harness.Scenario.run `Gentlerain setup in
  let cu = Harness.Scenario.run `Cure setup in
  let t (o : Harness.Scenario.outcome) = o.Harness.Scenario.throughput in
  if t ev < t sat then Alcotest.fail "eventual should be the throughput upper bound";
  if t sat <= t cu then Alcotest.fail "saturn should beat cure on throughput";
  if t sat < 0.9 *. t ev then Alcotest.fail "saturn overhead should be small";
  let extra (o : Harness.Scenario.outcome) = o.Harness.Scenario.extra_visibility_ms in
  if extra sat > 0.5 *. extra gr then
    Alcotest.failf "saturn staleness (%.1f) should be far below gentlerain (%.1f)" (extra sat) (extra gr);
  ignore (t gr)

(* every subcommand reaches the top-level help: cmdliner lists each
   registered command, with its Cmd.info doc, under COMMANDS *)
let test_cli_help_lists_subcommands () =
  (* resolve the built CLI next to this test binary so the test works from
     both `dune runtest` (sandbox cwd) and `dune exec` (repo-root cwd) *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "saturn_cli.exe")
  in
  if not (Sys.file_exists exe) then Alcotest.failf "saturn_cli.exe not built at %s" exe;
  let ic = Unix.open_process_in (Filename.quote exe ^ " --help=plain 2>/dev/null") in
  let help = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "saturn-cli --help exited nonzero");
  (* the COMMANDS section runs to the next unindented heading; each entry
     line is indented seven columns and starts with the command's name *)
  let rec section = function
    | "COMMANDS" :: rest -> List.filter (fun l -> l <> "") rest |> body
    | _ :: rest -> section rest
    | [] -> []
  and body = function
    | l :: rest when l.[0] = ' ' ->
      let entry =
        if String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' ' then
          [ List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7))) ]
        else []
      in
      entry @ body rest
    | _ -> []
  in
  let listed = section (String.split_on_char '\n' help) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "COMMANDS lists %s" name) true (List.mem name listed))
    [
      "matrix"; "plan"; "bench"; "bench-check"; "social"; "trace"; "obs"; "faults"; "series";
      "blame"; "diff"; "gate";
    ]

(* ---- the system table in Build ------------------------------------------ *)

let test_system_names_round_trip () =
  let open Harness in
  let system = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf (Build.label s)) ( = ) in
  let distinct f = List.length (List.sort_uniq String.compare (List.map f Build.all)) in
  Alcotest.(check int) "nine systems" 9 (List.length Build.all);
  List.iter
    (fun s -> Alcotest.check system (Build.name s) s (Build.of_name (Build.name s)))
    Build.all;
  Alcotest.(check int) "names distinct" 9 (distinct Build.name);
  Alcotest.(check int) "labels distinct" 9 (distinct Build.label);
  Alcotest.check_raises "unknown name" (Invalid_argument "Build.of_name: unknown system nope")
    (fun () -> ignore (Build.of_name "nope"))

(* the CLI flag sets and the shootout lineup, each read off the table *)
let test_system_lineups () =
  let open Harness in
  Alcotest.(check (list string)) "scenario --system values"
    [ "saturn"; "saturn-peer"; "eventual"; "gentlerain"; "cure"; "eunomia"; "okapi" ]
    (List.map Build.name Scenario.systems);
  Alcotest.(check (list string)) "fault-matrix --system values"
    [ "saturn"; "eventual"; "eunomia"; "okapi" ]
    (List.map (fun s -> Build.name (s :> Build.system)) Fault_run.systems);
  Alcotest.(check (list string)) "shootout rows"
    [ "eventual"; "gentlerain"; "eunomia"; "saturn"; "okapi"; "cure"; "orbe"; "cops" ]
    Shootout.systems

(* every system builds through make, names its Api.t after the table, and
   completes operations on the shared three-site deployment *)
let test_make_runs system () =
  let open Harness in
  let engine = Sim.Engine.create () in
  let dc_sites = [| 0; 1; 2 |] in
  let topo = Build.topo3 () in
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:12 in
  let metrics = Metrics.create engine ~topo ~dc_sites in
  let spec = Build.default_spec ~topo ~dc_sites ~rmap in
  let api = Build.make system engine spec metrics in
  Alcotest.(check string) "Api.name" (Build.name system) api.Api.name;
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys = 12; read_ratio = 0.5 }
      ~rmap ~topo ~dc_sites
  in
  let r =
    Driver.run engine api metrics ~clients:(Driver.make_clients ~dc_sites ~per_dc:2)
      ~next_op:(fun c -> Workload.Synthetic.next w ~dc:c.Client.preferred_dc)
      ~warmup:(Sim.Time.of_ms 100) ~measure:(Sim.Time.of_ms 300) ~cooldown:(Sim.Time.of_ms 100)
  in
  if r.Driver.ops_completed <= 0 then Alcotest.failf "%s completed no ops" (Build.name system)

(* the one client adapter moves the harness client's current_dc for
   every system: attach at dc 0, migrate to dc 2, read there. Key 0 lives
   only at dc 2, so the read finds the value only if dc 2 serves it. *)
let test_client_follows_migration system () =
  let open Harness in
  let engine = Sim.Engine.create () in
  let dc_sites = [| 0; 1; 2 |] in
  let topo = Build.topo3 () in
  let rmap =
    Kvstore.Replica_map.create ~n_dcs:3 ~n_keys:4 ~assign:(fun key ->
        if key = 0 then [ 2 ] else [ 0; 1; 2 ])
  in
  let metrics = Metrics.create engine ~topo ~dc_sites in
  let api = Build.make system engine (Build.default_spec ~topo ~dc_sites ~rmap) metrics in
  let writer = Client.create ~id:1 ~home_site:2 ~preferred_dc:2 in
  let c = Client.create ~id:0 ~home_site:0 ~preferred_dc:0 in
  let steps = ref [] and read = ref None in
  let step name = steps := (name, c.Client.current_dc) :: !steps in
  api.Api.attach writer ~dc:2 ~k:(fun () ->
      api.Api.update writer ~key:0 ~value:(Kvstore.Value.make ~payload:42 ~size_bytes:8)
        ~k:(fun () ->
          api.Api.attach c ~dc:0 ~k:(fun () ->
              step "attach";
              api.Api.migrate c ~dest_dc:2 ~k:(fun () ->
                  step "migrate";
                  api.Api.read c ~key:0 ~k:(fun v ->
                      step "read";
                      read := Some v)))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  api.Api.stop ();
  Alcotest.(check (list (pair string int))) "current_dc after each step"
    [ ("attach", 0); ("migrate", 2); ("read", 2) ]
    (List.rev !steps);
  Alcotest.(check (option (option int))) "read served at dc 2" (Some (Some 42))
    (Option.map (Option.map (fun v -> v.Kvstore.Value.payload)) !read)

(* the shootout reads meta.bytes.<name>.* by name, and Registry.counter
   creates a missing counter, so a renamed system would read 0 silently:
   check the builder registered them, through the snapshot *)
let test_make_registers_meta_bytes () =
  let open Harness in
  List.iter
    (fun name ->
      let engine = Sim.Engine.create () in
      let dc_sites = [| 0; 1; 2 |] in
      let topo = Build.topo3 () in
      let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:12 in
      let metrics = Metrics.create engine ~topo ~dc_sites in
      let registry = Stats.Registry.create () in
      let spec = Build.default_spec ~topo ~dc_sites ~rmap in
      let (_ : Api.t) = Build.make ~registry (Build.of_name name) engine spec metrics in
      let names = List.map fst (Stats.Registry.snapshot registry) in
      List.iter
        (fun suffix ->
          let counter = Printf.sprintf "meta.bytes.%s.%s" name suffix in
          if not (List.mem counter names) then Alcotest.failf "%s not registered" counter)
        [ "attached"; "stabilization"; "heartbeat" ])
    Harness.Shootout.systems

(* one Saturn deployment on its own engine, registry and series, built
   now and run by the returned thunk *)
let saturn_deployment () =
  let open Harness in
  let engine = Sim.Engine.create () in
  let spec = Build.three_site ~rmap:(Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:12) Build.chain_config in
  let { Build.topo; dc_sites; rmap; _ } = spec in
  let registry = Stats.Registry.create () in
  let series = Stats.Series.create () in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let api, _system = Build.saturn ~registry ~series engine spec metrics in
  let run () =
    let w =
      Workload.Synthetic.create
        { Workload.Synthetic.default with Workload.Synthetic.n_keys = 12; read_ratio = 0.5 }
        ~rmap ~topo ~dc_sites
    in
    ignore
      (Driver.run engine api metrics ~clients:(Driver.make_clients ~dc_sites ~per_dc:2)
         ~next_op:(fun c -> Workload.Synthetic.next w ~dc:c.Client.preferred_dc)
         ~warmup:(Sim.Time.of_ms 100) ~measure:(Sim.Time.of_ms 300) ~cooldown:(Sim.Time.of_ms 100));
    Stats.Series.seal series ~now:(Sim.Engine.now engine)
  in
  (registry, series, run)

let snapshot_lines registry =
  List.map
    (fun (name, v) ->
      match v with
      | Stats.Registry.Counter n -> Printf.sprintf "%s %d" name n
      | Stats.Registry.Gauge g -> Printf.sprintf "%s %g" name g)
    (Stats.Registry.snapshot registry)

(* each deployment reports through its own observer value: a second
   deployment built beside the first neither receives the first's counts
   nor changes what the first records *)
let test_two_deployments_in_one_process () =
  let registry, series, run = saturn_deployment () in
  let idle_registry, _idle_series, _idle_run = saturn_deployment () in
  run ();
  let idle = snapshot_lines idle_registry in
  if idle = [] then Alcotest.fail "the idle deployment registered no counters";
  List.iter
    (fun (name, v) ->
      match v with
      | Stats.Registry.Counter 0 -> ()
      | Stats.Registry.Counter n -> Alcotest.failf "idle deployment: %s = %d" name n
      | Stats.Registry.Gauge _ -> Alcotest.failf "idle deployment: unexpected gauge %s" name)
    (Stats.Registry.snapshot idle_registry);
  let solo_registry, solo_series, solo_run = saturn_deployment () in
  solo_run ();
  Alcotest.(check (list string)) "snapshot equals a solo run's" (snapshot_lines solo_registry)
    (snapshot_lines registry);
  Alcotest.(check string) "series digest equals a solo run's" (Stats.Series.digest solo_series)
    (Stats.Series.digest series)

(* Fig 8's active clients are a uniform sample of each datacenter's users,
   not the low-id hubs preferential attachment makes *)
let test_social_active_users_unbiased () =
  let open Harness in
  let s = Scenario.default_social_setup in
  let graph = Workload.Scale.generate ~n_users:s.Scenario.n_users ~seed:s.Scenario.s_seed () in
  let part =
    Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:s.Scenario.min_replicas
      ~max_replicas:s.Scenario.max_replicas ~seed:(s.Scenario.s_seed + 1)
  in
  let active = Scenario.active_users s graph part in
  Array.iteri
    (fun dc users ->
      if List.length users > s.Scenario.social_clients_per_dc then
        Alcotest.failf "dc %d: %d active users" dc (List.length users);
      List.iter
        (fun u ->
          if Workload.Social_partition.master part ~user:u <> dc then
            Alcotest.failf "user %d is active at dc %d, which is not its master" u dc)
        users)
    active;
  let sample = List.concat (Array.to_list active) in
  Alcotest.(check int) "no user drawn twice" (List.length sample)
    (List.length (List.sort_uniq Int.compare sample));
  let mean =
    float_of_int (List.fold_left (fun acc u -> acc + Workload.Scale.degree graph u) 0 sample)
    /. float_of_int (List.length sample)
  in
  let population = Workload.Scale.mean_degree graph in
  if Float.abs (mean -. population) > 0.1 *. population then
    Alcotest.failf "active users' mean degree %.1f is not within 10%% of the population's %.1f"
      mean population

let suite =
  [
    Alcotest.test_case "metrics windowing" `Quick test_metrics_windowing;
    Alcotest.test_case "metrics observers ignore the window" `Quick test_metrics_subscribe_ignores_window;
    Alcotest.test_case "driver counts only the window" `Quick test_driver_counts_window_only;
    Alcotest.test_case "scenario smoke: headline ordering" `Slow test_scenario_smoke;
    Alcotest.test_case "cli --help lists every subcommand" `Quick test_cli_help_lists_subcommands;
    Alcotest.test_case "system table: names round-trip" `Quick test_system_names_round_trip;
    Alcotest.test_case "system table: CLI and shootout lineups" `Quick test_system_lineups;
    Alcotest.test_case "system table: shootout systems register meta bytes" `Quick
      test_make_registers_meta_bytes;
    Alcotest.test_case "two deployments in one process" `Quick
      test_two_deployments_in_one_process;
    Alcotest.test_case "social active users are a uniform sample" `Quick
      test_social_active_users_unbiased;
  ]
  @ List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "system table: make %s runs" (Harness.Build.name s))
          `Quick (test_make_runs s))
      Harness.Build.all
  @ List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "client adapter: %s keeps current_dc through a migration"
             (Harness.Build.name s))
          `Quick (test_client_follows_migration s))
      Harness.Build.all
