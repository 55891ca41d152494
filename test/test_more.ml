(* Additional coverage: determinism, compaction, the always-on timestamp
   sweep, transport edge cases and small API corners. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- end-to-end determinism -------------------------------------------------- *)

let test_runs_are_deterministic () =
  let run () =
    let setup =
      { Harness.Scenario.default_setup with
        Harness.Scenario.n_dcs = 3;
        n_keys = 40;
        clients_per_dc = 10;
        measure = Sim.Time.of_ms 400;
        warmup = Sim.Time.of_ms 150;
        cooldown = Sim.Time.of_ms 50;
      }
    in
    let o = Harness.Scenario.run `Saturn setup in
    (o.Harness.Scenario.ops, Harness.Metrics.visible_count o.Harness.Scenario.metrics,
     o.Harness.Scenario.mean_visibility_ms)
  in
  let a = run () and b = run () in
  if a <> b then Alcotest.fail "identical seeds must give bit-identical results"

(* ---- proxy: timestamp sweep in stream mode ----------------------------------- *)

let test_sweep_rescues_lost_label () =
  (* a payload whose tree label never arrives (lost with a dead serializer)
     is still installed once stable in timestamp order — the §6.1
     availability argument *)
  let engine = Sim.Engine.create () in
  let installed = ref [] in
  let proxy =
    Helpers.instant_proxy engine ~n_dcs:3
      ~install_update:(fun p -> installed := p.Saturn.Proxy.label.Saturn.Label.ts :: !installed)
      ~mode:Saturn.Proxy.Stream
  in
  let l = Saturn.Label.update ~ts:(Sim.Time.of_ms 10) ~src_dc:1 ~src_gear:0 ~key:1 in
  Saturn.Proxy.on_payload proxy
    { Saturn.Proxy.label = l; value = Kvstore.Value.make ~payload:1 ~size_bytes:2;
      origin_time = Sim.Time.zero; epoch = 0 };
  (* no on_label ever (the label died with its serializer); heartbeats make
     it ts-stable *)
  Saturn.Proxy.on_heartbeat proxy ~src:1 (Sim.Time.of_ms 20);
  Saturn.Proxy.on_heartbeat proxy ~src:2 (Sim.Time.of_ms 20);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "installed by the sweep" [ Sim.Time.of_ms 10 ] !installed;
  (* a late label arrival is recognized as already applied *)
  Saturn.Proxy.on_label proxy l;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "no duplicate" [ Sim.Time.of_ms 10 ] !installed;
  Alcotest.(check int) "stream drained" 0 (Saturn.Proxy.pending_stream proxy)

let test_proxy_compact () =
  let engine = Sim.Engine.create () in
  let proxy =
    Helpers.instant_proxy engine ~n_dcs:2 ~install_update:ignore
  in
  let l = Saturn.Label.update ~ts:(Sim.Time.of_ms 5) ~src_dc:1 ~src_gear:0 ~key:1 in
  Saturn.Proxy.on_payload proxy
    { Saturn.Proxy.label = l; value = Kvstore.Value.make ~payload:1 ~size_bytes:2;
      origin_time = Sim.Time.zero; epoch = 0 };
  Saturn.Proxy.on_label proxy l;
  Sim.Engine.run engine;
  Alcotest.(check bool) "applied" true (Saturn.Proxy.label_was_applied proxy l);
  (* a compact below the retention horizon keeps the record *)
  Saturn.Proxy.on_heartbeat proxy ~src:1 (Sim.Time.of_sec 1.);
  Saturn.Proxy.compact proxy;
  Alcotest.(check bool) "retained within the margin" true (Saturn.Proxy.label_was_applied proxy l);
  (* once the source's promise is far past the label, the record is pruned *)
  Saturn.Proxy.on_heartbeat proxy ~src:1 (Sim.Time.of_sec 30.);
  Saturn.Proxy.compact proxy;
  Alcotest.(check bool) "pruned after the horizon" false (Saturn.Proxy.label_was_applied proxy l)

(* ---- chain compaction --------------------------------------------------------- *)

let test_chain_compact_long_run () =
  let engine = Sim.Engine.create () in
  let committed = ref 0 in
  let chain =
    Saturn.Chain.create engine ~replicas:2 ~intra_latency:(Sim.Time.of_us 10)
      ~deliver:(fun _ -> incr committed)
      ~confirm:(fun ~peer:_ ~seq:_ -> ())
      ()
  in
  for i = 1 to 5_000 do
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_us (i * 30)) (fun () ->
        Saturn.Chain.input chain ~origin:0 ~oseq:i i ~peer:0 ~seq:i)
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "all committed" 5_000 !committed;
  (* a retransmission inside the retention window still dedups *)
  Saturn.Chain.input chain ~origin:0 ~oseq:5_000 5_000 ~peer:0 ~seq:5_000;
  Sim.Engine.run engine;
  Alcotest.(check int) "windowed dedup" 5_000 !committed

(* ---- reliable fifo with jittered links ----------------------------------------- *)

let prop_fifo_with_jitter =
  QCheck.Test.make ~name:"reliable fifo over jittered links stays in order" ~count:30
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let e = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let data = Sim.Link.create ~jitter_us:3_000 ~rng e ~latency:(Sim.Time.of_ms 2) () in
      let ack = Sim.Link.create ~jitter_us:3_000 ~rng e ~latency:(Sim.Time.of_ms 2) () in
      let received = ref [] in
      let recv = Saturn.Reliable_fifo.receiver e ~deliver:(fun m -> received := m :: !received) in
      let sender = Saturn.Reliable_fifo.sender e ~resend_period:(Sim.Time.of_ms 40) in
      Saturn.Reliable_fifo.connect sender ~data ~ack recv;
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 200)) (fun () ->
            Saturn.Reliable_fifo.send sender ~size_bytes:0 i)
      done;
      Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
      Saturn.Reliable_fifo.stop sender;
      Sim.Engine.run e;
      List.rev !received = List.init n (fun i -> i + 1))

(* ---- small API corners ---------------------------------------------------------- *)

let test_link_set_latency () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 10) () in
  Alcotest.(check int) "initial" 10_000 (Sim.Time.to_us (Sim.Link.latency l));
  Sim.Link.set_latency l (Sim.Time.of_ms 25);
  let at = ref 0 in
  Sim.Link.send (Helpers.closure_chan l) ~size_bytes:0 (fun () -> at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "new latency used" 25_000 !at;
  Alcotest.(check int) "counters" 1 (Sim.Link.delivered_count l)

let test_server_backlog () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e (fun k -> k ()) in
  Alcotest.(check int) "idle backlog" 0 (Sim.Time.to_us (Sim.Server.backlog s));
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 4) (fun () -> ());
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 3) (fun () -> ());
  Alcotest.(check int) "queued backlog" 7_000 (Sim.Time.to_us (Sim.Server.backlog s));
  Alcotest.(check int) "queue length" 2 (Sim.Server.queue_length s);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Time.to_us (Sim.Server.backlog s))

let test_rng_split_independence () =
  let parent = Sim.Rng.create ~seed:5 in
  let a = Sim.Rng.split parent in
  let b = Sim.Rng.split parent in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_sample_misc () =
  let s = Stats.Sample.create () in
  Stats.Sample.add_time s (Sim.Time.of_ms 3);
  Stats.Sample.add s 5.;
  Alcotest.(check (float 1e-9)) "mean" 4. (Stats.Sample.mean s);
  Alcotest.(check (float 1e-9)) "add_time records ms" 3. (Stats.Sample.percentile s 0.)

let test_table_csv () =
  let t = Stats.Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ "plain"; "with,comma" ];
  Stats.Table.add_row t [ "quote\"y"; "z" ];
  let csv = Stats.Table.to_csv t in
  Alcotest.(check string) "escaping" "a,b\nplain,\"with,comma\"\n\"quote\"\"y\",z\n" csv;
  Alcotest.(check string) "cell_pct" "+3.5%" (Stats.Table.cell_pct 3.5);
  Alcotest.(check string) "cell_f" "2.0" (Stats.Table.cell_f 2.)

let test_value_pp_and_label_pp () =
  let v = Kvstore.Value.make ~payload:3 ~size_bytes:9 in
  Alcotest.(check string) "value pp" "v3(9B)" (Format.asprintf "%a" Kvstore.Value.pp v);
  let l = Saturn.Label.update ~ts:(Sim.Time.of_ms 1) ~src_dc:2 ~src_gear:1 ~key:4 in
  let s = Format.asprintf "%a" Saturn.Label.pp l in
  Alcotest.(check bool) "label pp mentions key" true
    (String.length s > 0 && String.contains s '4')

let test_keyspace_nearest_degree_caps () =
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let rm = Workload.Keyspace.nearest_degree ~topo:Sim.Ec2.topology ~dc_sites ~n_keys:9 ~degree:10 in
  Alcotest.(check (float 1e-9)) "degree capped at n_dcs" 3. (Kvstore.Replica_map.mean_degree rm)

let test_synthetic_full_replication_remote_path () =
  (* under full replication a remote read still exercises the attach path
     at the nearest other datacenter *)
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let rm = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:16 in
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys = 16; remote_read_ratio = 1.0; read_ratio = 1.0 }
      ~rmap:rm ~topo:Sim.Ec2.topology ~dc_sites
  in
  (match Workload.Synthetic.next w ~dc:1 with
  | Workload.Op.Remote_read { at; _ } ->
    Alcotest.(check int) "nearest other dc of NC is O" 2 at
  | _ -> Alcotest.fail "expected a remote read")

(* saturn peer-mode remote read cycle completes (regression for the
   migration-label deadlock) *)
let test_peer_mode_remote_read_cycle () =
  let engine, system = Helpers.star_system ~peer_mode:true () in
  let done_ = ref false in
  Saturn.System.attach system ~client:0 ~home:(Helpers.home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(Helpers.home 0) ~dc:0 ~key:3
          ~value:(Helpers.value 1) ~k:(fun () ->
          Saturn.System.migrate system ~client:0 ~home:(Helpers.home 0) ~dc:0 ~preferred_dc:0
              ~dest_dc:1 ~k:(fun () ->
              Saturn.System.read system ~client:0 ~home:(Helpers.home 0) ~dc:1 ~key:3 ~k:(fun _ ->
                  Saturn.System.migrate system ~client:0 ~home:(Helpers.home 0) ~dc:1
                    ~preferred_dc:0 ~dest_dc:0 ~k:(fun () -> done_ := true)))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  Alcotest.(check bool) "peer-mode remote cycle completes" true !done_

let test_multiple_label_waiters_fire_in_order () =
  let engine = Sim.Engine.create () in
  let proxy =
    Helpers.instant_proxy engine ~n_dcs:2 ~install_update:ignore
  in
  let m = Saturn.Label.migration ~ts:(Sim.Time.of_ms 5) ~src_dc:1 ~src_gear:0 ~dest_dc:0 in
  let fired = ref [] in
  Saturn.Proxy.wait_for_label proxy m (fun () -> fired := 1 :: !fired);
  Saturn.Proxy.wait_for_label proxy m (fun () -> fired := 2 :: !fired);
  Saturn.Proxy.wait_for_label proxy m (fun () -> fired := 3 :: !fired);
  Saturn.Proxy.on_label proxy m;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ] (List.rev !fired)

let test_engine_step_api () =
  let e = Sim.Engine.create () in
  Alcotest.(check bool) "empty queue" false (Sim.Engine.step e);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> ());
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () -> ());
  Alcotest.(check int) "pending" 2 (Sim.Engine.pending e);
  Alcotest.(check bool) "first step" true (Sim.Engine.step e);
  Alcotest.(check int) "one left" 1 (Sim.Engine.pending e);
  Alcotest.(check int) "clock at first event" 1_000 (Sim.Engine.now e)

let test_attach_semantics_matrix () =
  (* Algorithm 1's three cases, exercised directly against a datacenter:
     an attach request enters the fabric for it at the client's home site
     and its reply rides the back leg *)
  let engine, system = Helpers.star_system () in
  let fabric = Saturn.System.fabric system in
  let hits = ref [] in
  let attach ~id ?past hit =
    let home = Helpers.home 1 in
    let session = Saturn.Fabric.session fabric ~client:id ~home in
    Option.iter (Saturn.Datacenter.observe session) past;
    Saturn.Fabric.send fabric ~home ~dc:1
      (Saturn.Datacenter.request
         (Saturn.Datacenter.Attach (fun () -> hits := hit :: !hits))
         session ~key:0 ~value:Saturn.Datacenter.no_value)
  in
  (* case 0: no causal past -> immediate *)
  attach ~id:0 `Empty;
  (* case 1: locally generated label -> immediate *)
  attach ~id:1 ~past:(Saturn.Label.update ~ts:(Sim.Time.of_ms 999) ~src_dc:1 ~src_gear:0 ~key:0)
    `Local;
  (* case 2: remote update label -> blocked until stabilization *)
  attach ~id:2 ~past:(Saturn.Label.update ~ts:(Sim.Time.of_ms 50) ~src_dc:0 ~src_gear:0 ~key:0)
    `Remote;
  Sim.Engine.run ~until:(Sim.Time.of_ms 20) engine;
  Alcotest.(check bool) "empty immediate" true (List.mem `Empty !hits);
  Alcotest.(check bool) "local immediate" true (List.mem `Local !hits);
  Alcotest.(check bool) "remote still blocked" false (List.mem `Remote !hits);
  (* heartbeats eventually stabilize past 50ms *)
  Sim.Engine.run ~until:(Sim.Time.of_ms 400) engine;
  Alcotest.(check bool) "remote released by stabilization" true (List.mem `Remote !hits)

let test_social_ops_kind_distribution () =
  (* the Benevenuto mix actually drives the generated kinds *)
  let graph = Workload.Scale.generate ~n_users:600 ~seed:21 () in
  let part = Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:2 ~max_replicas:4 ~seed:22 in
  let ops = Workload.Social_ops.create part ~value_size:8 ~seed:23 in
  let rng = Sim.Rng.create ~seed:24 in
  let writes = ref 0 and own_reads = ref 0 in
  let n = 8_000 in
  for _ = 1 to n do
    let user = Sim.Rng.int rng 600 in
    match Workload.Social_ops.next ops ~user with
    | Workload.Op.Write _ -> incr writes
    | Workload.Op.Read { key } when key = Workload.Social_partition.wall_key part ~user -> incr own_reads
    | Workload.Op.Read _ | Workload.Op.Remote_read _ -> ()
  done;
  let wf = float_of_int !writes /. float_of_int n in
  (* writes = update-own 5% + wall posts 3% + uploads 2% = ~10% *)
  if wf < 0.07 || wf > 0.13 then Alcotest.failf "write kind fraction off: %.3f" wf

let test_config_pp_smoke () =
  let tree = Saturn.Tree.star ~n_dcs:2 in
  let config = Saturn.Config.create ~tree ~placement:[| 0 |] ~dc_sites:[| 0; 1 |] () in
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_dc 1) (Sim.Time.of_ms 2);
  let s = Format.asprintf "%a" Saturn.Config.pp config in
  Alcotest.(check bool) "mentions the delay" true
    (String.length s > 0 && Saturn.Config.total_delay config = Sim.Time.of_ms 2)

let suite =
  [
    Alcotest.test_case "runs are deterministic" `Quick test_runs_are_deterministic;
    Alcotest.test_case "label waiters fire in order" `Quick test_multiple_label_waiters_fire_in_order;
    Alcotest.test_case "engine step API" `Quick test_engine_step_api;
    Alcotest.test_case "attach semantics matrix (Alg 1)" `Quick test_attach_semantics_matrix;
    Alcotest.test_case "social op kind distribution" `Quick test_social_ops_kind_distribution;
    Alcotest.test_case "config printer/delay accounting" `Quick test_config_pp_smoke;
    Alcotest.test_case "ts sweep rescues a lost label" `Quick test_sweep_rescues_lost_label;
    Alcotest.test_case "proxy compaction" `Quick test_proxy_compact;
    Alcotest.test_case "chain compaction over a long run" `Quick test_chain_compact_long_run;
    qtest prop_fifo_with_jitter;
    Alcotest.test_case "link set_latency" `Quick test_link_set_latency;
    Alcotest.test_case "server backlog accounting" `Quick test_server_backlog;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independence;
    Alcotest.test_case "sample add_time and add" `Quick test_sample_misc;
    Alcotest.test_case "table csv escaping" `Quick test_table_csv;
    Alcotest.test_case "value/label printers" `Quick test_value_pp_and_label_pp;
    Alcotest.test_case "nearest-degree caps at n_dcs" `Quick test_keyspace_nearest_degree_caps;
    Alcotest.test_case "full-replication remote path" `Quick test_synthetic_full_replication_remote_path;
    Alcotest.test_case "peer-mode remote read cycle" `Quick test_peer_mode_remote_read_cycle;
  ]
