(* Tests for the baseline protocols: eventual, GentleRain, Cure and the
   COPS-style explicit-check system. *)

let fixture ?(n_dcs = 3) ?(n_keys = 16) ?rmap () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = match rmap with Some r -> r | None -> Kvstore.Replica_map.full ~n_dcs ~n_keys in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  (engine, dc_sites, spec, metrics)

let v n = Kvstore.Value.make ~payload:n ~size_bytes:2

let test_eventual_visibility_is_bulk_latency () =
  let engine, dc_sites, spec, metrics = fixture () in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let api = Harness.Build.eventual engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  (* visibility at dc1 (NV->NC 37 ms) must be the bulk latency exactly *)
  let s = Harness.Metrics.pair_visibility metrics ~origin:0 ~dest:1 in
  Alcotest.(check int) "one observation" 1 (Stats.Sample.count s);
  let lat = Stats.Sample.mean s in
  if lat < 37.0 || lat > 39.0 then Alcotest.failf "eventual visibility should be ~37ms, got %.1f" lat

let test_gentlerain_visibility_bounded_by_furthest () =
  (* GentleRain's lower bound is the latency to the furthest datacenter
     regardless of the originator (§7.3.1) *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:4 () in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let api = Harness.Build.gentlerain engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  (* NV -> NC bulk is 37 ms, but dc3 is Ireland: lat(I, NC) = 74 ms, so the
     GST at NC lags ~84ms (Frankfurt not in this 4-dc set; max into NC is I at 74) *)
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  let s = Harness.Metrics.pair_visibility metrics ~origin:0 ~dest:1 in
  Alcotest.(check int) "one observation" 1 (Stats.Sample.count s);
  let lat = Stats.Sample.mean s in
  if lat < 70.0 then
    Alcotest.failf "GentleRain visibility must be gated by the furthest DC (>= ~74ms), got %.1f" lat

let test_cure_visibility_near_direct () =
  (* Cure's lower bound is the direct latency plus a stabilization round *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:4 () in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let api = Harness.Build.cure engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  let s = Harness.Metrics.pair_visibility metrics ~origin:0 ~dest:1 in
  Alcotest.(check int) "one observation" 1 (Stats.Sample.count s);
  let lat = Stats.Sample.mean s in
  if lat < 37.0 || lat > 60.0 then
    Alcotest.failf "Cure visibility should be direct latency + stabilization, got %.1f" lat

let test_gentlerain_attach_waits_for_gst () =
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let api = Harness.Build.gentlerain engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let attached_at = ref None in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          (* remote attach right after a fresh local write must wait for the
             destination's stable time to pass the write's timestamp *)
          api.Harness.Api.migrate c ~dest_dc:1 ~k:(fun () ->
              attached_at := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  match !attached_at with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    let ms = Sim.Time.to_ms_float d in
    (* NC's GST lags by max incoming latency (NV 37, O 10 -> 37) + rounds;
       the request itself takes 37 each way; the wait must exceed a plain
       RTT (74) because of stabilization *)
    if ms < 74.0 then Alcotest.failf "GentleRain attach should include a GST wait, got %.1f" ms

let test_eventual_attach_immediate () =
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let api = Harness.Build.eventual engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let attached_at = ref None in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          api.Harness.Api.migrate c ~dest_dc:1 ~k:(fun () ->
              attached_at := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  match !attached_at with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    let ms = Sim.Time.to_ms_float d in
    if ms > 75.0 then Alcotest.failf "eventual attach is just an RTT (74ms), got %.1f" ms

let test_eunomia_visibility_gated_by_furthest () =
  (* Eunomia's stable time is the min over every remote sequencer's
     announced floor, so — like GentleRain's GST — visibility is gated by
     the furthest datacenter, not the origin *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:4 () in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let api = Harness.Build.eunomia engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  let s = Harness.Metrics.pair_visibility metrics ~origin:0 ~dest:1 in
  Alcotest.(check int) "one observation" 1 (Stats.Sample.count s);
  let lat = Stats.Sample.mean s in
  if lat < 70.0 then
    Alcotest.failf "Eunomia visibility must be gated by the furthest DC (>= ~74ms), got %.1f" lat

let test_eunomia_attach_waits_for_stable_time () =
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let api = Harness.Build.eunomia engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let attached_at = ref None in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          api.Harness.Api.migrate c ~dest_dc:1 ~k:(fun () ->
              attached_at := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  match !attached_at with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    let ms = Sim.Time.to_ms_float d in
    (* the destination's stable time must pass the fresh write's timestamp:
       more than the plain 74ms RTT, like GentleRain *)
    if ms < 74.0 then Alcotest.failf "Eunomia attach should include a stabilization wait, got %.1f" ms

let test_eunomia_write_cheaper_than_gentlerain_visibility_equal () =
  (* the point of Eunomia: local update latency stays near the eventual
     baseline because stabilization happens off the client path *)
  let run build =
    let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
    let api = build engine spec metrics in
    let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
    let done_at = ref None in
    api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
        let t0 = Sim.Engine.now engine in
        api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
            done_at := Some (Sim.Time.sub (Sim.Engine.now engine) t0)));
    Sim.Engine.run ~until:(Sim.Time.of_sec 1.) engine;
    api.Harness.Api.stop ();
    Sim.Engine.run engine;
    match !done_at with
    | None -> Alcotest.fail "update never completed"
    | Some d -> Sim.Time.to_us d
  in
  let eunomia = run Harness.Build.eunomia in
  let gentlerain = run Harness.Build.gentlerain in
  if eunomia > gentlerain then
    Alcotest.failf "Eunomia's write path (%dus) should not exceed GentleRain's (%dus)" eunomia
      gentlerain

let test_okapi_visibility_waits_for_ust () =
  (* Okapi's universal stable time needs a stabilization round after the
     payload lands, so visibility exceeds the bulk latency *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  Harness.Metrics.set_window metrics ~start_at:Sim.Time.zero ~end_at:Sim.Time.infinity;
  let api = Harness.Build.okapi engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  let s = Harness.Metrics.pair_visibility metrics ~origin:0 ~dest:1 in
  Alcotest.(check int) "one observation" 1 (Stats.Sample.count s);
  let lat = Stats.Sample.mean s in
  (* bulk NV->NC is 37ms; the UST must additionally carry every matrix
     row's floor across the mesh before the update is exposed *)
  if lat < 37.0 then
    Alcotest.failf "Okapi visibility cannot beat the bulk latency, got %.1f" lat;
  if lat < 40.0 then
    Alcotest.failf "Okapi visibility should include a stabilization round, got %.1f" lat

let test_okapi_attach_waits_for_ust () =
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let api = Harness.Build.okapi engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let attached_at = ref None in
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          api.Harness.Api.migrate c ~dest_dc:1 ~k:(fun () ->
              attached_at := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  match !attached_at with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    let ms = Sim.Time.to_ms_float d in
    if ms < 74.0 then Alcotest.failf "Okapi attach should include a UST wait, got %.1f" ms

let test_cops_dependency_growth () =
  (* pruning on: tiny contexts; pruning off (the only sound option under
     partial replication): contexts grow with the read history *)
  let run ~prune_on_write =
    let engine, dc_sites, spec, metrics = fixture ~n_keys:32 () in
    let api, cops = Harness.Build.cops engine spec metrics ~prune_on_write in
    let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
    let rec ops i k = if i = 0 then k () else begin
        api.Harness.Api.update c ~key:(i mod 32) ~value:(v i) ~k:(fun () ->
            api.Harness.Api.read c ~key:((i + 7) mod 32) ~k:(fun _ -> ops (i - 1) k))
      end
    in
    api.Harness.Api.attach c ~dc:0 ~k:(fun () -> ops 40 (fun () -> ()));
    Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
    api.Harness.Api.stop ();
    Sim.Engine.run engine;
    Baselines.Cops.mean_dependency_size cops
  in
  let pruned = run ~prune_on_write:true in
  let unpruned = run ~prune_on_write:false in
  if pruned > 3.0 then Alcotest.failf "pruned contexts should stay tiny, got %.1f" pruned;
  if unpruned < 2. *. pruned then
    Alcotest.failf "unpruned contexts should grow (pruned %.1f vs unpruned %.1f)" pruned unpruned

let test_cops_checks_dependencies () =
  (* an update must not become visible before a dependency it can check *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let order = ref [] in
  Harness.Metrics.subscribe metrics (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value:_ ->
      if dc = 2 then order := key :: !order);
  let api, _ = Harness.Build.cops engine spec metrics ~prune_on_write:false in
  let c0 = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let c1 = Harness.Client.create ~id:1 ~home_site:dc_sites.(1) ~preferred_dc:1 in
  api.Harness.Api.attach c0 ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c0 ~key:1 ~value:(v 11) ~k:(fun () -> ()));
  let rec poll () =
    api.Harness.Api.read c1 ~key:1 ~k:(fun r ->
        match r with
        | Some _ -> api.Harness.Api.update c1 ~key:2 ~value:(v 22) ~k:(fun () -> ())
        | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 5) poll)
  in
  api.Harness.Api.attach c1 ~dc:1 ~k:poll;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  match List.rev !order with
  | [ 1; 2 ] -> ()
  | other ->
    Alcotest.failf "expected key1 then key2 at dc2, got [%s]"
      (String.concat ";" (List.map string_of_int other))

let test_orbe_dependency_order () =
  (* the causal chain must hold under explicit matrix checking *)
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 () in
  let order = ref [] in
  Harness.Metrics.subscribe metrics (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value:_ ->
      if dc = 2 then order := key :: !order);
  let api, orbe = Harness.Build.orbe engine spec metrics in
  let c0 = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let c1 = Harness.Client.create ~id:1 ~home_site:dc_sites.(1) ~preferred_dc:1 in
  api.Harness.Api.attach c0 ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c0 ~key:1 ~value:(v 11) ~k:(fun () -> ()));
  let rec poll () =
    api.Harness.Api.read c1 ~key:1 ~k:(fun r ->
        match r with
        | Some _ -> api.Harness.Api.update c1 ~key:2 ~value:(v 22) ~k:(fun () -> ())
        | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 5) poll)
  in
  api.Harness.Api.attach c1 ~dc:1 ~k:poll;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  (match List.rev !order with
  | [ 1; 2 ] -> ()
  | other ->
    Alcotest.failf "expected key1 then key2 at dc2, got [%s]"
      (String.concat ";" (List.map string_of_int other)));
  Alcotest.(check int) "nothing stuck under full replication" 0
    (Baselines.Orbe.blocked_updates orbe ~dc:2);
  Alcotest.(check bool) "matrix metadata shipped" true (Baselines.Orbe.mean_matrix_entries orbe > 0.)

let test_orbe_blocks_under_partial_replication () =
  (* the Table 2 "no partial replication" row, demonstrated: a dependency on
     a partition whose updates never reach dc2 wedges the dependent update *)
  let n_keys = 16 in
  let rmap =
    Kvstore.Replica_map.create ~n_dcs:3 ~n_keys ~assign:(fun key ->
        if key = 1 then [ 0; 1 ] (* key 1 never reaches dc2 *) else [ 0; 1; 2 ])
  in
  let engine, dc_sites, spec, metrics = fixture ~n_dcs:3 ~rmap () in
  let api, orbe = Harness.Build.orbe engine spec metrics in
  let c = Harness.Client.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  (* write key 1 (not at dc2), then a dependent write on key 0 (everywhere):
     dc2 can never satisfy the dependency matrix *)
  api.Harness.Api.attach c ~dc:0 ~k:(fun () ->
      api.Harness.Api.update c ~key:1 ~value:(v 1) ~k:(fun () ->
          api.Harness.Api.update c ~key:0 ~value:(v 2) ~k:(fun () -> ())));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run engine;
  Alcotest.(check bool) "dependent update wedged at dc2" true
    (Baselines.Orbe.blocked_updates orbe ~dc:2 > 0)

(* ---- the fabric passes values -------------------------------------------- *)

let drain engine =
  while Sim.Engine.step engine do
    ()
  done

(* words allocated by [f ()], minor and direct-to-major (see test_stats) *)
let allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A fabric over three EC2 datacenters whose protocol only counts what
   reaches it, so the pins below weigh the fabric's own queues. *)
let counting_fabric () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let p =
    {
      Baselines.Common.topo = Sim.Ec2.topology;
      dc_sites;
      partitions = 2;
      frontends = 2;
      cost = Saturn.Cost_model.default;
      rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:4;
      bulk_factor = 1.0;
    }
  in
  let hooks =
    { Baselines.Common.on_visible = (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time:_ ~value:_ -> ()) }
  in
  let geo = Baselines.Common.create engine p hooks ~cmp:Int.compare ~session:ignore in
  let delivered = ref 0 and applied = ref 0 in
  Baselines.Common.bind geo
    {
      Baselines.Common.attach = Baselines.Common.attach_now geo;
      read_us = (fun ~size_bytes:_ -> 1);
      stamp_read = Baselines.Common.no_stamp;
      learn_read = Baselines.Common.forget_read;
      write_us = (fun () ~size_bytes:_ -> 1);
      write = (fun () ~dc:_ ~part:_ ~key:_ _ -> Sim.Time.zero);
      learn_write = Baselines.Common.forget_write;
      apply = (fun ~dc:_ ~part:_ _ -> incr applied);
      deliver = (fun ~src:_ ~dst:_ _ -> incr delivered);
    };
  (engine, geo, delivered, applied)

(* As test_sim pins Link.send: shipping a preallocated bulk message to a
   key's replicas and its deliveries allocate nothing, and neither does a
   storage-server submit of a preallocated item and its completion. *)
let test_fabric_allocates_nothing () =
  let engine, geo, delivered, applied = counting_fabric () in
  let msg = ref 0 (* a boxed message, made once *) in
  let ship_burst () =
    for key = 0 to 3 do
      Baselines.Common.ship_update geo ~dc:(key mod 3) ~key ~part:0 ~ts:Sim.Time.zero ~spans:true
        ~size_bytes:(16 * key) ~meta_bytes:0 msg
    done;
    drain engine
  in
  ship_burst ();
  let rounds = 2_000 in
  let words = allocated (fun () -> for _ = 1 to rounds do ship_burst () done) in
  Alcotest.(check (float 0.)) "ship_update and deliveries" 0. words;
  Alcotest.(check int) "every replica reached" (8 * (rounds + 1)) !delivered;
  let item = Baselines.Common.Apply msg in
  let submit_burst () =
    for i = 0 to 63 do
      Baselines.Common.submit geo ~dc:(i mod 3) ~part:(i land 1) ~cost_us:(i land 3) item
    done;
    drain engine
  in
  submit_burst ();
  let words = allocated (fun () -> for _ = 1 to rounds do submit_burst () done) in
  Alcotest.(check (float 0.)) "submit and completion" 0. words;
  Alcotest.(check int) "every item applied" (64 * (rounds + 1)) !applied

(* A ceiling on the words per op of the shootout's eventual row, set-up
   and percentiles included, so closures cannot creep back into the
   fabric. The row costs 73 words per op; with the closure-passing fabric
   it cost about 250, and the boxing percentile sort alone adds about 95. *)
let test_eventual_shootout_words_per_op () =
  let row = ref None in
  let words = allocated (fun () -> row := Some (Harness.Shootout.run_system "eventual")) in
  match !row with
  | None -> Alcotest.fail "no row"
  | Some r ->
    let per_op = words /. float_of_int r.Harness.Shootout.ops in
    let ceiling = 85. in
    if per_op > ceiling then
      Alcotest.failf "eventual shootout row: %.1f words/op, above the %.0f ceiling" per_op ceiling

let suite =
  [
    Alcotest.test_case "eventual: visibility = bulk latency" `Quick test_eventual_visibility_is_bulk_latency;
    Alcotest.test_case "gentlerain: visibility gated by furthest DC" `Quick
      test_gentlerain_visibility_bounded_by_furthest;
    Alcotest.test_case "cure: visibility near direct latency" `Quick test_cure_visibility_near_direct;
    Alcotest.test_case "gentlerain: attach waits for GST" `Quick test_gentlerain_attach_waits_for_gst;
    Alcotest.test_case "eventual: attach is immediate" `Quick test_eventual_attach_immediate;
    Alcotest.test_case "eunomia: visibility gated by furthest DC" `Quick
      test_eunomia_visibility_gated_by_furthest;
    Alcotest.test_case "eunomia: attach waits for stable time" `Quick
      test_eunomia_attach_waits_for_stable_time;
    Alcotest.test_case "eunomia: write path no slower than GentleRain" `Quick
      test_eunomia_write_cheaper_than_gentlerain_visibility_equal;
    Alcotest.test_case "okapi: visibility waits for UST" `Quick test_okapi_visibility_waits_for_ust;
    Alcotest.test_case "okapi: attach waits for UST" `Quick test_okapi_attach_waits_for_ust;
    Alcotest.test_case "cops: dependency metadata growth" `Quick test_cops_dependency_growth;
    Alcotest.test_case "cops: dependency checking order" `Quick test_cops_checks_dependencies;
    Alcotest.test_case "orbe: dependency-matrix order" `Quick test_orbe_dependency_order;
    Alcotest.test_case "orbe: wedges under partial replication" `Quick
      test_orbe_blocks_under_partial_replication;
    Alcotest.test_case "fabric: ship and submit allocate nothing" `Quick
      test_fabric_allocates_nothing;
    Alcotest.test_case "eventual shootout: words per op ceiling" `Quick
      test_eventual_shootout_words_per_op;
  ]
