(* Unit tests for the remote proxy: stream ordering, the concurrency
   optimization, staging, fallback, watermarks and attach waits. *)

let ulabel ~ts ~src ~key = Saturn.Label.update ~ts:(Sim.Time.of_ms ts) ~src_dc:src ~src_gear:0 ~key
let mlabel ~ts ~src ~dest = Saturn.Label.migration ~ts:(Sim.Time.of_ms ts) ~src_dc:src ~src_gear:0 ~dest_dc:dest

let payload ?(origin = 0.) ?(epoch = 0) label =
  { Saturn.Proxy.label; value = Kvstore.Value.make ~payload:label.Saturn.Label.ts ~size_bytes:2;
    origin_time = Sim.Time.of_sec origin; epoch }

(* proxy with instantaneous staging and an install log *)
type ctx = {
  engine : Sim.Engine.t;
  proxy : Saturn.Proxy.t;
  installed : int list ref; (* label ts of installed payloads, in order *)
  mutable stage_delay : Sim.Time.t;
}

let make_ctx ?(n_dcs = 3) ?(mode = Saturn.Proxy.Stream) () =
  let engine = Sim.Engine.create () in
  let installed = ref [] in
  let ctx_ref = ref None in
  let proxy =
    Saturn.Proxy.create engine ~observer:(Stats.Observer.create ()) ~dc:0 ~n_dcs
      ~stage_update:(fun p ->
        match !ctx_ref with
        | Some ctx ->
          Sim.Engine.schedule engine ~delay:ctx.stage_delay (fun () ->
              Saturn.Proxy.staged ctx.proxy p)
        | None -> Alcotest.fail "payload staged before the proxy was made")
      ~install_update:(fun p ->
        installed := Sim.Time.to_us p.Saturn.Proxy.label.Saturn.Label.ts :: !installed)
      ~mode ()
  in
  let ctx = { engine; proxy; installed; stage_delay = Sim.Time.zero } in
  ctx_ref := Some ctx;
  ctx

let ts_us ms = ms * 1000

let test_stream_applies_in_order () =
  let ctx = make_ctx () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 and l2 = ulabel ~ts:20 ~src:1 ~key:2 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Saturn.Proxy.on_label ctx.proxy l1;
  Saturn.Proxy.on_label ctx.proxy l2;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "in stream order" [ ts_us 10; ts_us 20 ] (List.rev !(ctx.installed));
  Alcotest.(check int) "applied counter" 2 (Saturn.Proxy.applied_updates ctx.proxy);
  Alcotest.(check bool) "label recorded applied" true (Saturn.Proxy.label_was_applied ctx.proxy l1)

let test_stream_blocks_on_missing_payload () =
  let ctx = make_ctx () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 and l2 = ulabel ~ts:20 ~src:2 ~key:2 in
  Saturn.Proxy.on_label ctx.proxy l1;
  Saturn.Proxy.on_label ctx.proxy l2;
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Sim.Engine.run ctx.engine;
  (* l2 (larger ts) must wait for l1 which has no payload yet *)
  Alcotest.(check (list int)) "dependent entry held" [] !(ctx.installed);
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "both released in order" [ ts_us 10; ts_us 20 ] (List.rev !(ctx.installed))

let test_concurrency_optimization () =
  (* Saturn delivers a LARGER ts first: the later-delivered smaller-ts label
     is concurrent and must not wait for the blocked head (§4.3) *)
  let ctx = make_ctx () in
  let head = ulabel ~ts:20 ~src:1 ~key:1 in
  let concurrent = ulabel ~ts:10 ~src:2 ~key:2 in
  Saturn.Proxy.on_label ctx.proxy head;
  (* head has no payload: blocked *)
  Saturn.Proxy.on_label ctx.proxy concurrent;
  Saturn.Proxy.on_payload ctx.proxy (payload concurrent);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "concurrent label applied around the blocked head"
    [ ts_us 10 ] (List.rev !(ctx.installed));
  Alcotest.(check int) "head still pending" 1 (Saturn.Proxy.pending_stream ctx.proxy)

let test_migration_label_fires_hook () =
  let ctx = make_ctx () in
  let hook_fired = ref None in
  Saturn.Proxy.on_migration_applicable ctx.proxy (fun l -> hook_fired := Some l);
  let waited = ref false in
  let m = mlabel ~ts:15 ~src:1 ~dest:0 in
  Saturn.Proxy.wait_for_label ctx.proxy m (fun () -> waited := true);
  Saturn.Proxy.on_label ctx.proxy m;
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "hook fired" true (!hook_fired <> None);
  Alcotest.(check bool) "attach waiter released" true !waited;
  (* waiting after application returns immediately *)
  let late = ref false in
  Saturn.Proxy.wait_for_label ctx.proxy m (fun () -> late := true);
  Alcotest.(check bool) "late waiter immediate" true !late

let test_staging_consumes_time () =
  let ctx = make_ctx () in
  ctx.stage_delay <- Sim.Time.of_ms 5;
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_label ctx.proxy l;
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Sim.Engine.run ~until:(Sim.Time.of_ms 3) ctx.engine;
  Alcotest.(check (list int)) "not installed while staging" [] !(ctx.installed);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "installed after staging" [ ts_us 10 ] !(ctx.installed)

let test_fallback_ts_order () =
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  let l2 = ulabel ~ts:20 ~src:2 ~key:2 in
  (* payloads arrive out of ts order; the bulk floor of each source reaches
     its own payload's ts, so l1 (ts 10 <= min floor 10) is already stable,
     while l2 (ts 20) must wait for src 1's promise to pass 20 *)
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "only the globally-stable prefix" [ ts_us 10 ] !(ctx.installed);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 30);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "applied in timestamp order" [ ts_us 10; ts_us 20 ]
    (List.rev !(ctx.installed))

let test_fallback_partial_stability () =
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  (* only src 1 has promised past 10; src 2 is silent -> not stable *)
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 30);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "held until all sources promise" [] !(ctx.installed);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 12);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "released" [ ts_us 10 ] !(ctx.installed)

let test_wait_for_ts_watermarks () =
  let ctx = make_ctx () in
  let released = ref false in
  Saturn.Proxy.wait_for_ts ctx.proxy (Sim.Time.of_ms 10) (fun () -> released := true);
  Alcotest.(check bool) "blocked initially" false !released;
  (* src1 applies an update with ts 15; src2 only heartbeats *)
  let l = ulabel ~ts:15 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_label ctx.proxy l;
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "still blocked on src2" false !released;
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 11);
  Alcotest.(check bool) "released once every source passed" true !released

let test_heartbeat_floor_unsafe_with_pending () =
  (* a pending (unstaged) payload with a small ts must hold the effective
     watermark below a later heartbeat *)
  let ctx = make_ctx () in
  ctx.stage_delay <- Sim.Time.of_sec 1.;
  let l = ulabel ~ts:5 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 50);
  let wm = Saturn.Proxy.effective_watermark ctx.proxy ~src:1 in
  Alcotest.(check bool) "watermark capped by pending payload" true
    (Sim.Time.compare wm (Sim.Time.of_ms 5) < 0)

let test_epoch_graceful_switch () =
  (* dc2 stays silent so the always-on timestamp sweep cannot install
     anything: the test isolates the label-buffering of the protocol *)
  let ctx = make_ctx ~n_dcs:3 () in
  Saturn.Proxy.start_graceful_switch ctx.proxy ~epoch:1;
  (* a C2 label arrives early and must be buffered *)
  let future = ulabel ~ts:40 ~src:1 ~key:9 in
  Saturn.Proxy.on_payload ctx.proxy (payload future);
  Saturn.Proxy.on_label_next ctx.proxy future;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "buffered during switch" [] !(ctx.installed);
  Alcotest.(check bool) "switch not complete" false (Saturn.Proxy.switch_complete ctx.proxy);
  (* the other dcs' epoch-change labels flow through C1 *)
  Saturn.Proxy.on_label ctx.proxy (Saturn.Label.epoch_change ~ts:(Sim.Time.of_ms 30) ~src_dc:1 ~epoch:1);
  Saturn.Proxy.on_label ctx.proxy (Saturn.Label.epoch_change ~ts:(Sim.Time.of_ms 31) ~src_dc:2 ~epoch:1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "switch complete" true (Saturn.Proxy.switch_complete ctx.proxy);
  Alcotest.(check (list int)) "buffered label drained" [ ts_us 40 ] !(ctx.installed);
  (* post-switch C2 labels flow directly *)
  let next = ulabel ~ts:50 ~src:1 ~key:10 in
  Saturn.Proxy.on_payload ctx.proxy (payload next);
  Saturn.Proxy.on_label_next ctx.proxy next;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "direct after switch" [ ts_us 40; ts_us 50 ] (List.rev !(ctx.installed))

let test_epoch_forced_switch () =
  (* three datacenters so that a silent source (src 2) gates stability *)
  let ctx = make_ctx ~n_dcs:3 () in
  (* C1 broke: fall back to ts order, buffer C2, adopt once the old
     epoch's bulk traffic has drained *)
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Saturn.Proxy.start_forced_switch ctx.proxy ~epoch:1;
  Alcotest.(check bool) "fallback mode" true (Saturn.Proxy.mode ctx.proxy = Saturn.Proxy.Fallback);
  let c2 = ulabel ~ts:30 ~src:1 ~key:2 in
  Saturn.Proxy.on_payload ctx.proxy (payload ~epoch:1 c2);
  Saturn.Proxy.on_label_next ctx.proxy c2;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "nothing before stability" [] !(ctx.installed);
  (* src 1's barrier is already crossed by c2's tag; src 2 stays silent, so
     an old-epoch heartbeat from it must NOT complete the switch *)
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 ~epoch:1 (Sim.Time.of_ms 35);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 35);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "old-epoch heartbeat does not complete" false
    (Saturn.Proxy.switch_complete ctx.proxy);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 ~epoch:1 (Sim.Time.of_ms 36);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "adopted C2" true (Saturn.Proxy.switch_complete ctx.proxy);
  Alcotest.(check bool) "back in stream mode" true (Saturn.Proxy.mode ctx.proxy = Saturn.Proxy.Stream);
  Alcotest.(check (list int)) "ts-fallback applied both, no duplicates"
    [ ts_us 10; ts_us 30 ] (List.rev !(ctx.installed))

let test_no_duplicate_install_across_paths () =
  (* a label applied via fallback must not re-install when it later arrives
     in a stream *)
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 20);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 20);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "applied once via fallback" [ ts_us 10 ] !(ctx.installed);
  Saturn.Proxy.set_mode ctx.proxy Saturn.Proxy.Stream;
  Saturn.Proxy.on_label ctx.proxy l;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "no re-install" [ ts_us 10 ] !(ctx.installed)

let test_duplicate_staged_after_apply () =
  (* one payload shipped twice: the first staging installs it, and the
     second staging completes only after the label was applied, so it
     must change nothing — no second install, and no second close of the
     bulk-transfer span the shipment opened *)
  let ctx = make_ctx () in
  ctx.stage_delay <- Sim.Time.of_ms 10;
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      (* the origin's ship hook opens the span once per shipment *)
      Sim.Span.begin_ ~at:Sim.Time.zero Sim.Span.Sk_bulk ~origin:1 ~seq:(Sim.Time.to_us l.ts)
        ~aux:0 ~site:1 ~peer:0 ~epoch:0;
      Saturn.Proxy.on_payload ctx.proxy (payload l);
      Saturn.Proxy.on_label ctx.proxy l;
      Sim.Engine.schedule ctx.engine ~delay:(Sim.Time.of_ms 5) (fun () ->
          Saturn.Proxy.on_payload ctx.proxy (payload l));
      Sim.Engine.run ~until:(Sim.Time.of_ms 12) ctx.engine;
      Alcotest.(check (list int)) "installed by the first staging" [ ts_us 10 ] !(ctx.installed);
      Alcotest.(check bool) "applied before the second staging" true
        (Saturn.Proxy.label_was_applied ctx.proxy l);
      Sim.Engine.run ctx.engine);
  Alcotest.(check (list int)) "one install" [ ts_us 10 ] !(ctx.installed);
  Alcotest.(check int) "applied counter" 1 (Saturn.Proxy.applied_updates ctx.proxy);
  Alcotest.(check int) "stream drained" 0 (Saturn.Proxy.pending_stream ctx.proxy);
  Alcotest.(check int) "no orphan span end" 0 (Sim.Probe.span_orphans probe);
  Alcotest.(check int) "no open span" 0 (Sim.Probe.open_span_count probe)

let test_fallback_before_label_no_orphan () =
  (* stream mode: the timestamp path installs a payload before its label
     arrives, so the label is never listed as waiting and no ordering-wait
     span is open for it; a label that did wait in the stream gets exactly
     one begin/end pair *)
  let ctx = make_ctx () in
  let early = ulabel ~ts:10 ~src:1 ~key:1 and waited = ulabel ~ts:30 ~src:2 ~key:2 in
  let probe = Sim.Probe.create () in
  let pairs () =
    Option.value ~default:0 (List.assoc_opt "proxy_order" (Sim.Probe.span_counts probe))
  in
  (* the origin's ship hook opens the bulk-transfer span staging closes *)
  let ship (l : Saturn.Label.t) =
    Sim.Span.begin_ ~at:(Sim.Engine.now ctx.engine) Sim.Span.Sk_bulk ~origin:l.src_dc
      ~seq:(Sim.Time.to_us l.ts) ~aux:0 ~site:l.src_dc ~peer:0 ~epoch:0;
    Saturn.Proxy.on_payload ctx.proxy (payload l)
  in
  Sim.Probe.with_probe probe (fun () ->
      ship early;
      Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 20);
      Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 20);
      Sim.Engine.run ctx.engine;
      Alcotest.(check (list int)) "installed by the timestamp path" [ ts_us 10 ] !(ctx.installed);
      Saturn.Proxy.on_label ctx.proxy early;
      Sim.Engine.run ctx.engine;
      Alcotest.(check int) "late label: no orphan span end" 0 (Sim.Probe.span_orphans probe);
      Alcotest.(check int) "late label: no open span" 0 (Sim.Probe.open_span_count probe);
      Alcotest.(check int) "late label: no ordering-wait pair" 0 (pairs ());
      Saturn.Proxy.on_label ctx.proxy waited;
      ship waited;
      Sim.Engine.run ctx.engine);
  Alcotest.(check (list int)) "both installed" [ ts_us 10; ts_us 30 ] (List.rev !(ctx.installed));
  Alcotest.(check int) "waited label: one ordering-wait pair" 1 (pairs ());
  Alcotest.(check int) "no orphan span end" 0 (Sim.Probe.span_orphans probe);
  Alcotest.(check int) "no open span" 0 (Sim.Probe.open_span_count probe)

let test_forced_switch_closes_listed_span () =
  (* a label listed in stream mode opened its ordering-wait span; a forced
     switch then puts the proxy in fallback mode, and the timestamp sweep
     installs the payload: the span must still close *)
  let ctx = make_ctx () in
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Saturn.Proxy.on_label ctx.proxy l;
      Alcotest.(check int) "listed: its span is open" 1 (Sim.Probe.open_span_count probe);
      Saturn.Proxy.start_forced_switch ctx.proxy ~epoch:1;
      (* the origin's ship hook opens the bulk-transfer span staging closes *)
      Sim.Span.begin_ ~at:(Sim.Engine.now ctx.engine) Sim.Span.Sk_bulk ~origin:1
        ~seq:(Sim.Time.to_us l.ts) ~aux:0 ~site:1 ~peer:0 ~epoch:0;
      Saturn.Proxy.on_payload ctx.proxy (payload l);
      Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 20);
      Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 20);
      Sim.Engine.run ctx.engine);
  Alcotest.(check bool) "still in fallback mode" true
    (Saturn.Proxy.mode ctx.proxy = Saturn.Proxy.Fallback);
  Alcotest.(check (list int)) "installed by the timestamp sweep" [ ts_us 10 ] !(ctx.installed);
  Alcotest.(check int) "no orphan span end" 0 (Sim.Probe.span_orphans probe);
  Alcotest.(check int) "no open span" 0 (Sim.Probe.open_span_count probe)

let suite =
  [
    Alcotest.test_case "stream applies in order" `Quick test_stream_applies_in_order;
    Alcotest.test_case "stream blocks on missing payload" `Quick test_stream_blocks_on_missing_payload;
    Alcotest.test_case "concurrency optimization (§4.3)" `Quick test_concurrency_optimization;
    Alcotest.test_case "migration label applicability" `Quick test_migration_label_fires_hook;
    Alcotest.test_case "staging consumes server time" `Quick test_staging_consumes_time;
    Alcotest.test_case "fallback applies in ts order" `Quick test_fallback_ts_order;
    Alcotest.test_case "fallback needs every source stable" `Quick test_fallback_partial_stability;
    Alcotest.test_case "wait_for_ts watermark release" `Quick test_wait_for_ts_watermarks;
    Alcotest.test_case "heartbeats unsafe over pending payloads" `Quick test_heartbeat_floor_unsafe_with_pending;
    Alcotest.test_case "graceful epoch switch" `Quick test_epoch_graceful_switch;
    Alcotest.test_case "forced epoch switch" `Quick test_epoch_forced_switch;
    Alcotest.test_case "no duplicate installs across paths" `Quick test_no_duplicate_install_across_paths;
    Alcotest.test_case "duplicate staged after apply is a no-op" `Quick test_duplicate_staged_after_apply;
    Alcotest.test_case "forced switch: a listed label's span closes" `Quick
      test_forced_switch_closes_listed_span;
    Alcotest.test_case "stream: timestamp-path install before its label opens no span" `Quick
      test_fallback_before_label_no_orphan;
  ]
