(* Fault-injection subsystem: link drop semantics, registry/partition
   construction, plan edges, injector wiring, invariant checker, and the
   whole-system property that any survivable random plan preserves
   exactly-once FIFO-per-origin commit. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- link cut/restore round trip ---------------------------------------- *)

let test_link_drop_reasons () =
  let engine = Sim.Engine.create () in
  let link = Sim.Link.create engine ~latency:(Sim.Time.of_ms 10) () in
  let chan = Helpers.closure_chan link in
  let delivered = ref 0 in
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Sim.Link.send chan ~size_bytes:0 (fun () -> incr delivered);
      (* in flight when the cut lands *)
      Sim.Link.cut link;
      Sim.Link.send chan ~size_bytes:0 (fun () -> incr delivered);
      (* sent while down *)
      Sim.Link.restore link;
      Sim.Link.send chan ~size_bytes:0 (fun () -> incr delivered);
      (* after restore: delivered normally *)
      Sim.Engine.run ~until:(Sim.Time.of_ms 50) engine);
  Alcotest.(check int) "one delivery" 1 !delivered;
  Alcotest.(check int) "in-flight drop" 1 (Sim.Link.dropped_cut_count link);
  Alcotest.(check int) "while-down drop" 1 (Sim.Link.dropped_down_count link);
  Alcotest.(check int) "total" 2 (Sim.Link.dropped_count link);
  let drops = ref [] in
  Sim.Probe.iter_views probe (fun _ v ->
      match v.kind with Sim.Probe.Kind.Link_drop -> drops := v.flag :: !drops | _ -> ());
  (* the down-drop is recorded at send time, the cut-drop when its delivery
     would have fired — hence the order *)
  Alcotest.(check (list bool)) "drop reasons traced" [ false; true ] (List.rev !drops)

let test_link_restore_idempotent () =
  let engine = Sim.Engine.create () in
  let link = Sim.Link.create engine ~latency:(Sim.Time.of_ms 1) () in
  Sim.Link.restore link;
  (* restore of an up link is a no-op *)
  Alcotest.(check bool) "still up" true (Sim.Link.is_up link);
  Sim.Link.cut link;
  Sim.Link.cut link;
  Sim.Link.restore link;
  Sim.Link.restore link;
  let delivered = ref 0 in
  Sim.Link.send (Helpers.closure_chan link) ~size_bytes:0 (fun () -> incr delivered);
  Sim.Engine.run ~until:(Sim.Time.of_ms 5) engine;
  Alcotest.(check int) "delivers after double cut/restore" 1 !delivered;
  Alcotest.(check int) "nothing dropped" 0 (Sim.Link.dropped_count link)

(* ---- registry + partition construction ---------------------------------- *)

let small_registry engine =
  let reg = Faults.Registry.create () in
  let mk () = Sim.Link.create engine ~latency:(Sim.Time.of_ms 5) () in
  Faults.Registry.register_link reg ~name:"ab" ~site_a:0 ~site_b:1 (mk ());
  Faults.Registry.register_link reg ~name:"bc" ~site_a:1 ~site_b:2 (mk ());
  Faults.Registry.register_link reg ~name:"ca" ~site_a:2 ~site_b:0 (mk ());
  Faults.Registry.register_link reg ~name:"aa" ~site_a:0 ~site_b:0 (mk ());
  reg

let test_partition_cut_set () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  let names side = List.map fst (Faults.Registry.links_crossing reg ~side) in
  (* exactly the links with one endpoint inside the side; internal links
     (both endpoints in, or both out) survive a partition *)
  Alcotest.(check (list string)) "side {0}" [ "ab"; "ca" ] (names [ 0 ]);
  Alcotest.(check (list string)) "side {1}" [ "ab"; "bc" ] (names [ 1 ]);
  Alcotest.(check (list string)) "side {0,1}" [ "bc"; "ca" ] (names [ 0; 1 ]);
  Alcotest.(check (list string)) "whole world: empty cut" [] (names [ 0; 1; 2 ])

let test_registry_errors () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  Alcotest.check_raises "duplicate link" (Invalid_argument "Faults.Registry: duplicate link \"ab\"")
    (fun () ->
      Faults.Registry.register_link reg ~name:"ab" ~site_a:0 ~site_b:1
        (Sim.Link.create engine ~latency:Sim.Time.zero ()));
  Alcotest.check_raises "unknown link" (Invalid_argument "Faults.Registry: unknown link \"zz\"")
    (fun () -> ignore (Faults.Registry.link reg "zz"));
  Alcotest.check_raises "unknown serializer"
    (Invalid_argument "Faults.Registry: unknown serializer \"ser9\"") (fun () ->
      ignore (Faults.Registry.serializer_down reg "ser9"))

let test_injector_partition_round_trip () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  let registry = Stats.Registry.create () in
  let plan =
    Faults.Plan.make
      [
        { Faults.Plan.at = Sim.Time.of_ms 1; action = Faults.Plan.Partition [ 0 ] };
        { Faults.Plan.at = Sim.Time.of_ms 2; action = Faults.Plan.Heal_partition [ 0 ] };
      ]
  in
  let inj = Faults.Injector.arm ~registry engine reg plan in
  let up name = Sim.Link.is_up (Faults.Registry.link reg name) in
  Sim.Engine.run ~until:(Sim.Time.of_us 1500) engine;
  Alcotest.(check bool) "ab cut" false (up "ab");
  Alcotest.(check bool) "ca cut" false (up "ca");
  Alcotest.(check bool) "bc untouched" true (up "bc");
  Alcotest.(check bool) "aa untouched" true (up "aa");
  Sim.Engine.run ~until:(Sim.Time.of_ms 3) engine;
  Alcotest.(check bool) "ab healed" true (up "ab");
  Alcotest.(check bool) "ca healed" true (up "ca");
  Alcotest.(check int) "both events applied" 2 (Faults.Injector.events_applied inj);
  let counter name =
    match Stats.Registry.find registry name with
    | Some (Stats.Registry.Counter n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "cuts counted" 2 (counter "faults.cuts");
  Alcotest.(check int) "heals counted" 2 (counter "faults.heals")

let test_injector_validates_eagerly () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  let plan =
    Faults.Plan.make [ { Faults.Plan.at = Sim.Time.zero; action = Faults.Plan.Cut "nope" } ]
  in
  Alcotest.check_raises "unknown name at arm time"
    (Invalid_argument "Faults.Registry: unknown link \"nope\"") (fun () ->
      ignore (Faults.Injector.arm engine reg plan))

(* ---- plan edges ---------------------------------------------------------- *)

let test_plan_sort_and_heal_time () =
  Alcotest.(check bool) "empty plan" true (Faults.Plan.is_empty (Faults.Plan.make []));
  Alcotest.(check (option int)) "no restorative event" None
    (Option.map Sim.Time.to_us
       (Faults.Plan.last_heal_time
          (Faults.Plan.make
             [
               {
                 Faults.Plan.at = Sim.Time.of_ms 5;
                 action = Faults.Plan.Crash_replica { serializer = "s"; replica = 0 };
               };
             ])));
  let plan =
    Faults.Plan.make
      [
        { Faults.Plan.at = Sim.Time.of_ms 12; action = Faults.Plan.Cut "x" };
        { Faults.Plan.at = Sim.Time.of_ms 10; action = Faults.Plan.Heal "x" };
        { Faults.Plan.at = Sim.Time.of_ms 5; action = Faults.Plan.Cut "x" };
      ]
  in
  Alcotest.(check (list int)) "time-sorted" [ 5; 10; 12 ]
    (List.map (fun (e : Faults.Plan.event) -> Sim.Time.to_ms_float e.at |> int_of_float)
       (Faults.Plan.events plan));
  Alcotest.(check (option int)) "last heal, not last event" (Some 10)
    (Option.map Sim.Time.to_us (Faults.Plan.last_heal_time plan) |> Option.map (fun us -> us / 1000))

let prop_random_plans_always_heal =
  QCheck.Test.make ~name:"random plans heal every cut and reset every spike" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let plan =
        Faults.Plan.random ~seed
          ~link_names:[ "l1"; "l2"; "l3" ]
          ~serializer_names:[ "s0"; "s1" ] ~clock_names:[ "c0" ] ~max_replica_crashes:1
          ~horizon:(Sim.Time.of_ms 100) ()
      in
      let ends_healed =
        List.fold_left
          (fun acc (e : Faults.Plan.event) ->
            match e.action with
            | Faults.Plan.Cut l -> (l, `Down) :: List.remove_assoc l acc
            | Faults.Plan.Heal l -> (l, `Up) :: List.remove_assoc l acc
            | Faults.Plan.Latency_factor { link; _ } ->
              (link ^ "!", `Down) :: List.remove_assoc (link ^ "!") acc
            | Faults.Plan.Latency_reset link ->
              (link ^ "!", `Up) :: List.remove_assoc (link ^ "!") acc
            | _ -> acc)
          [] (Faults.Plan.events plan)
      in
      List.for_all (fun (_, st) -> st = `Up) ends_healed
      && List.for_all
           (fun (e : Faults.Plan.event) ->
             Sim.Time.compare e.at (Sim.Time.of_ms 100) < 0
             &&
             match e.action with
             | Faults.Plan.Crash_serializer _ -> false (* never the whole chain *)
             | _ -> true)
           (Faults.Plan.events plan))

(* ---- reconfiguration plan/injector edges ---------------------------------- *)

let dc_sites3 = [| 0; 1; 2 |]

let switch_event ~at ~graceful =
  {
    Faults.Plan.at;
    action =
      Faults.Plan.Switch_config
        { graceful; config = Harness.Build.backup_config ~dc_sites:dc_sites3 };
  }

let test_switch_plan_not_restorative () =
  let plan = Faults.Plan.make [ switch_event ~at:(Sim.Time.of_ms 5) ~graceful:true ] in
  (* a switch is a migration, not a heal: recovery is not measured from it *)
  Alcotest.(check (option int)) "no heal time" None
    (Option.map Sim.Time.to_us (Faults.Plan.last_heal_time plan));
  Alcotest.(check string) "pp" "t=5000us switch-config graceful\n"
    (Format.asprintf "%a" Faults.Plan.pp plan)

let prop_random_plans_at_most_one_early_switch =
  QCheck.Test.make ~name:"random plans include at most one switch, in the first half" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let plan =
        Faults.Plan.random ~seed ~link_names:[ "l1"; "l2" ] ~serializer_names:[ "s0" ]
          ~clock_names:[] ~max_replica_crashes:1
          ~switch:(Harness.Build.backup_config ~dc_sites:dc_sites3)
          ~horizon:(Sim.Time.of_ms 100) ()
      in
      let switches =
        List.filter_map
          (fun (e : Faults.Plan.event) ->
            match e.action with Faults.Plan.Switch_config _ -> Some e.at | _ -> None)
          (Faults.Plan.events plan)
      in
      List.length switches <= 1
      && List.for_all (fun at -> Sim.Time.compare at (Sim.Time.of_ms 50) < 0) switches)

let test_injector_rejects_switch_without_system () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  (* nothing bound via bind_system: the registry cannot reconfigure *)
  Alcotest.check_raises "switch needs a Saturn system"
    (Invalid_argument "Faults.Injector: switch-config needs a reconfigurable (Saturn) system")
    (fun () ->
      ignore
        (Faults.Injector.arm engine reg
           (Faults.Plan.make [ switch_event ~at:Sim.Time.zero ~graceful:true ])))

let test_injector_e2_names_deferred () =
  let engine = Sim.Engine.create () in
  let reg = small_registry engine in
  (* an epoch-2 name before any switch is a typo and must fail at arm time *)
  Alcotest.check_raises "e2. name without a preceding switch"
    (Invalid_argument "Faults.Registry: unknown link \"e2.ab\"") (fun () ->
      ignore
        (Faults.Injector.arm engine reg
           (Faults.Plan.make [ { Faults.Plan.at = Sim.Time.zero; action = Faults.Plan.Cut "e2.ab" } ])))

(* arm a plan that cuts an epoch-2 tree link after the switch: the name only
   exists once the switch fires, so validation is deferred — and the cut
   then resolves against the new tree's registered link *)
let test_switch_registers_epoch2_pieces () =
  let spec =
    Harness.Build.three_site ~rmap:(Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:8)
      Harness.Build.chain_config
  in
  let engine = Sim.Engine.create () in
  let freg = Faults.Registry.create () in
  let metrics = Harness.Metrics.create engine ~topo:spec.Harness.Build.topo ~dc_sites:dc_sites3 in
  let _api, _system = Harness.Build.saturn ~faults:freg engine spec metrics in
  let plan =
    Faults.Plan.make
      [
        switch_event ~at:(Sim.Time.of_ms 10) ~graceful:true;
        { Faults.Plan.at = Sim.Time.of_ms 20; action = Faults.Plan.Cut "e2.tree.s0->s1.data" };
        { Faults.Plan.at = Sim.Time.of_ms 30; action = Faults.Plan.Heal "e2.tree.s0->s1.data" };
      ]
  in
  let inj = Faults.Injector.arm engine freg plan in
  Alcotest.(check bool) "epoch-2 names unknown before the switch" true
    (not (List.exists (fun n -> String.length n > 3 && String.sub n 0 3 = "e2.")
            (Faults.Registry.link_names freg)));
  Sim.Engine.run ~until:(Sim.Time.of_ms 15) engine;
  (* the backup tree's serializers and links are now addressable *)
  Alcotest.(check bool) "e2 serializer registered" true
    (List.mem "e2.ser0" (Faults.Registry.serializer_names freg));
  Alcotest.(check bool) "e2 tree link registered" true
    (List.mem "e2.tree.s0->s1.data" (Faults.Registry.link_names freg));
  Sim.Engine.run ~until:(Sim.Time.of_ms 25) engine;
  Alcotest.(check bool) "deferred cut applied to the new tree" false
    (Sim.Link.is_up (Faults.Registry.link freg "e2.tree.s0->s1.data"));
  Sim.Engine.run ~until:(Sim.Time.of_ms 35) engine;
  Alcotest.(check bool) "healed" true
    (Sim.Link.is_up (Faults.Registry.link freg "e2.tree.s0->s1.data"));
  Alcotest.(check int) "all three events applied" 3 (Faults.Injector.events_applied inj)

let test_double_switch_rejected () =
  let spec =
    Harness.Build.three_site ~rmap:(Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:8)
      Harness.Build.chain_config
  in
  let engine = Sim.Engine.create () in
  let freg = Faults.Registry.create () in
  let metrics = Harness.Metrics.create engine ~topo:spec.Harness.Build.topo ~dc_sites:dc_sites3 in
  let _api, _system = Harness.Build.saturn ~faults:freg engine spec metrics in
  Alcotest.check_raises "one switch per plan"
    (Invalid_argument "Faults.Injector: at most one switch-config per plan (one switch per system)")
    (fun () ->
      ignore
        (Faults.Injector.arm engine freg
           (Faults.Plan.make
              [
                switch_event ~at:(Sim.Time.of_ms 1) ~graceful:true;
                switch_event ~at:(Sim.Time.of_ms 2) ~graceful:false;
              ])))

(* ---- checker ------------------------------------------------------------- *)

module Ev = Probe_reference

(* A checker subscribed to [probe] as it records, and [Checker.analyze]
   over the kept trace afterwards, must agree report for report: every
   planted violation below exercises both. *)
let subscribed_checker probe =
  let c = Faults.Checker.create () in
  Sim.Probe.subscribe probe (Faults.Checker.step c);
  c

let streamed_report probe c =
  let r = Faults.Checker.report c in
  if r <> Faults.Checker.analyze probe then
    Alcotest.failf "streaming checker disagrees with Checker.analyze:@.%a" Faults.Checker.pp r;
  r

let with_events emits =
  let probe = Sim.Probe.create () in
  let c = subscribed_checker probe in
  Sim.Probe.with_probe probe (fun () ->
      List.iter (fun (us, ev) -> Ev.record ~at:(Sim.Time.of_us us) ev) emits);
  streamed_report probe c

let commit ser origin oseq = Ev.Ser_commit { ser; origin; oseq; epoch = 0 }
let commit_e epoch ser origin oseq = Ev.Ser_commit { ser; origin; oseq; epoch }

let forward ?(gear = 0) ~dc ~oseq ~epoch () =
  Ev.Label_forward { dc; gear; ts = oseq; oseq; inst = epoch; epoch }

let marker = forward ~gear:Saturn.Label.marker_gear

let has_violation r sub =
  let contains s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    go 0
  in
  List.exists (fun (v : Faults.Checker.violation) -> contains v.Faults.Checker.what)
    r.Faults.Checker.violations

let test_checker_clean_stream () =
  let r =
    with_events
      [
        (1, commit 0 1 1);
        (2, commit 0 1 2);
        (3, commit 0 2 1);
        (* gaps are legal: partial replication skips uninterested subtrees *)
        (4, commit 0 1 5);
        (5, Ev.Sink_emit { dc = 0; ts = 10 });
        (6, Ev.Sink_emit { dc = 0; ts = 10 });
        (* equal sink ts fine *)
        (7, Ev.Proxy_apply { dc = 0; src_dc = 1; gear = 0; ts = 4; fallback = false });
        (8, Ev.Proxy_apply { dc = 0; src_dc = 1; gear = 0; ts = 9; fallback = true });
      ]
  in
  Alcotest.(check bool) "ok" true (Faults.Checker.ok r);
  Alcotest.(check int) "commits" 4 r.Faults.Checker.commits

let test_checker_flags_duplicate_commit () =
  let r = with_events [ (1, commit 0 1 1); (2, commit 0 1 1) ] in
  Alcotest.(check int) "one violation" 1 (List.length r.Faults.Checker.violations);
  (* same oseq at a different serializer is NOT a duplicate *)
  let r2 = with_events [ (1, commit 0 1 1); (2, commit 1 1 1) ] in
  Alcotest.(check bool) "per-serializer scope" true (Faults.Checker.ok r2)

let test_checker_flags_reorder () =
  let r = with_events [ (1, commit 0 1 3); (2, commit 0 1 2) ] in
  Alcotest.(check int) "fifo violation" 1 (List.length r.Faults.Checker.violations);
  let r2 = with_events [ (1, Ev.Sink_emit { dc = 2; ts = 9 });
                         (2, Ev.Sink_emit { dc = 2; ts = 8 }) ] in
  Alcotest.(check int) "sink violation" 1 (List.length r2.Faults.Checker.violations)

let test_checker_counts () =
  let r =
    with_events
      [
        (1, Ev.Fifo_resend { sender = 0; seq = 1 });
        (2, Ev.Link_drop { in_flight = true });
        (3, Ev.Link_drop { in_flight = false });
        (4, Ev.Head_change { ser = 0 });
        (5, Ev.Proxy_mode { dc = 0; mode = Sim.Probe.Fallback });
        (6, Ev.Proxy_mode { dc = 0; mode = Sim.Probe.Stream });
      ]
  in
  Alcotest.(check int) "resends" 1 r.Faults.Checker.resends;
  Alcotest.(check int) "drops cut" 1 r.Faults.Checker.drops_cut;
  Alcotest.(check int) "drops down" 1 r.Faults.Checker.drops_down;
  Alcotest.(check int) "head changes" 1 r.Faults.Checker.head_changes;
  Alcotest.(check int) "fallbacks (activations only)" 1 r.Faults.Checker.fallback_activations

(* ---- cross-epoch invariants ----------------------------------------------- *)

let test_checker_epoch_scopes_commit_keys () =
  (* epoch-2 serializer ids and per-origin uid counters restart at 0: the
     same (ser, origin, oseq) in a later epoch is a fresh commit, not a
     duplicate or a FIFO regression *)
  let r =
    with_events
      [ (1, commit_e 0 0 1 1); (2, commit_e 0 0 1 2); (3, commit_e 1 0 1 1); (4, commit_e 1 0 1 2) ]
  in
  Alcotest.(check bool) "ok across epochs" true (Faults.Checker.ok r);
  Alcotest.(check int) "all four commits counted" 4 r.Faults.Checker.commits;
  (* but within one epoch the old rules still bite *)
  let r2 = with_events [ (1, commit_e 1 0 1 1); (2, commit_e 1 0 1 1) ] in
  Alcotest.(check bool) "duplicate within an epoch still flagged" true
    (has_violation r2 "committed twice")

let test_checker_marker_last () =
  (* §6.2: the epoch-change marker must be the last label its origin pushes
     through the old tree *)
  let r =
    with_events
      [
        (1, forward ~dc:1 ~oseq:4 ~epoch:0 ());
        (2, marker ~dc:1 ~oseq:5 ~epoch:0 ());
        (3, forward ~dc:1 ~oseq:6 ~epoch:0 ());
      ]
  in
  Alcotest.(check bool) "old-tree forward after the marker flagged" true
    (has_violation r "after marker");
  (* the same origin continuing on the NEW tree is the intended behaviour *)
  let r2 =
    with_events
      [
        (1, forward ~dc:1 ~oseq:4 ~epoch:0 ());
        (2, marker ~dc:1 ~oseq:5 ~epoch:0 ());
        (3, forward ~dc:1 ~oseq:6 ~epoch:1 ());
        (4, commit_e 1 0 1 6);
      ]
  in
  Alcotest.(check bool) "new-tree labels after the marker are fine" true (Faults.Checker.ok r2);
  let r3 =
    with_events [ (1, marker ~dc:1 ~oseq:5 ~epoch:0 ()); (2, marker ~dc:1 ~oseq:7 ~epoch:0 ()) ]
  in
  Alcotest.(check bool) "duplicate marker flagged" true (has_violation r3 "duplicate epoch-change")

let test_checker_route_monotone_and_duplicate_apply () =
  let r =
    with_events [ (1, forward ~dc:2 ~oseq:1 ~epoch:1 ()); (2, forward ~dc:2 ~oseq:2 ~epoch:0 ()) ]
  in
  Alcotest.(check bool) "route regression flagged" true (has_violation r "route regression");
  let apply ts = Ev.Proxy_apply { dc = 2; src_dc = 1; gear = 0; ts; fallback = false } in
  let r2 = with_events [ (1, apply 7); (2, apply 7) ] in
  Alcotest.(check bool) "old/new tree race installing a label twice flagged" true
    (has_violation r2 "installed twice")

(* ---- one planted stream per remaining rule ---------------------------------- *)

(* Each rule below gets a stream that breaks it and nothing else: the
   streamed report must carry exactly these violations, at these times,
   with these messages, and agree with [Checker.analyze] (via
   [with_events]). *)
let check_flags events want =
  let r = with_events events in
  Alcotest.(check (list (pair int string)))
    "violations" want
    (List.map
       (fun (v : Faults.Checker.violation) ->
         (Sim.Time.to_us v.Faults.Checker.at, v.Faults.Checker.what))
       r.Faults.Checker.violations)

let test_checker_flags_proxy_order () =
  let apply ~gear ts = Ev.Proxy_apply { dc = 0; src_dc = 1; gear; ts; fallback = false } in
  check_flags
    [ (1, apply ~gear:0 9); (2, apply ~gear:0 5); (3, apply ~gear:1 9);
      (* another origin has its own order *)
      (4, Ev.Proxy_apply { dc = 0; src_dc = 2; gear = 0; ts = 1; fallback = true }) ]
    [ (2, "proxy order violation at dc0: src dc1 ts 5 after ts 9");
      (3, "proxy order violation at dc0: src dc1 ts 9 after ts 9") ]

let test_checker_flags_vec_regression () =
  let adv ts = Ev.Vec_advance { dc = 2; src = 1; ts } in
  check_flags
    [ (1, adv 5); (2, adv 5); (3, adv 3); (4, adv 8);
      (5, Ev.Vec_advance { dc = 2; src = 0; ts = 1 }) ]
    [ (2, "version vector regression at dc2: entry for dc1 moved 5 -> 5");
      (3, "version vector regression at dc2: entry for dc1 moved 5 -> 3") ]

let test_checker_flags_switch_done () =
  let fin dc epoch = Ev.Switch_done { dc; epoch } in
  check_flags
    [ (1, fin 1 2); (2, Ev.Switch_begin { epoch = 2; graceful = true }); (3, fin 1 2);
      (4, fin 0 2); (5, fin 1 2) ]
    [ (1, "dc1 finished migrating to epoch 2 that no Switch_begin announced");
      (5, "dc1 finished migrating to epoch 2 twice") ]

let test_checker_flags_step_order () =
  let step seq = Ev.Engine_step { seq } in
  check_flags
    [ (10, step 5); (10, step 6); (10, step 6); (9, step 7); (11, step 0) ]
    [ (10, "event loop order regression: step (t=10us, seq 6) after (t=10us, seq 6)");
      (9, "event loop order regression: step (t=9us, seq 7) after (t=10us, seq 6)") ]

let test_checker_flags_link_conservation () =
  check_flags
    [ (1, Ev.Link_send { size_bytes = 10 }); (2, Ev.Link_deliver);
      (3, Ev.Link_deliver); (4, Ev.Link_drop { in_flight = true }) ]
    [ (3, "link conservation violated: 2 delivered + 0 dropped > 1 sent");
      (4, "link conservation violated: 2 delivered + 1 dropped > 1 sent") ]

let test_checker_flags_negative_link_size () =
  check_flags
    [ (1, Ev.Link_send { size_bytes = 0 }); (2, Ev.Link_send { size_bytes = -3 }) ]
    [ (2, "link send with negative size: -3 bytes") ]

let test_checker_flags_self_hop () =
  check_flags
    [ (1, Ev.Serializer_hop { from_ser = 1; to_ser = 2 });
      (2, Ev.Serializer_hop { from_ser = 2; to_ser = 2 }) ]
    [ (2, "serializer self-hop: ser2 forwarded to itself") ]

let test_checker_flags_invalid_egress () =
  check_flags
    [ (1, Ev.Serializer_deliver { dc = 0 }); (2, Ev.Serializer_deliver { dc = -1 }) ]
    [ (2, "serializer egress toward invalid dc-1") ]

let test_checker_flags_negative_delay () =
  check_flags
    [ (1, Ev.Delay_wait { serializer = 3; us = 0 });
      (2, Ev.Delay_wait { serializer = 3; us = -5 }) ]
    [ (2, "negative artificial delay at ser3: -5us") ]

let test_checker_flags_invalid_chain_ack () =
  check_flags
    [ (1, Ev.Chain_ack { seq = 0 }); (2, Ev.Chain_ack { seq = -1 }) ]
    [ (2, "chain ack for invalid seq -1") ]

(* The checker's per-source runs of applied labels against a hash-set
   model of the two apply rules: random applies over a few datacenters,
   sources, timestamps and gears, so duplicates and out-of-order applies
   land anywhere in a run, must draw exactly the model's messages. *)
let prop_apply_rules_match_model =
  QCheck.Test.make ~name:"apply duplicate and order rules match a hash-set model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 60) (quad (int_bound 1) (int_bound 2) (int_bound 9) (int_bound 1)))
    (fun applies ->
      let seen = Hashtbl.create 16 and last = Hashtbl.create 4 and want = ref [] in
      List.iteri
        (fun i (dc, src_dc, ts, gear) ->
          if Hashtbl.mem seen (dc, src_dc, ts, gear) then
            want :=
              ( i,
                Printf.sprintf
                  "duplicate apply at dc%d: label (src dc%d, ts %d, gear %d) installed twice" dc
                  src_dc ts gear )
              :: !want
          else Hashtbl.replace seen (dc, src_dc, ts, gear) ();
          match Hashtbl.find_opt last (dc, src_dc) with
          | Some prev when ts <= prev ->
            want :=
              ( i,
                Printf.sprintf "proxy order violation at dc%d: src dc%d ts %d after ts %d" dc
                  src_dc ts prev )
              :: !want
          | _ -> Hashtbl.replace last (dc, src_dc) ts)
        applies;
      let r =
        with_events
          (List.mapi
             (fun i (dc, src_dc, ts, gear) ->
               (i, Ev.Proxy_apply { dc; src_dc; gear; ts; fallback = false }))
             applies)
      in
      List.map
        (fun (v : Faults.Checker.violation) ->
          (Sim.Time.to_us v.Faults.Checker.at, v.Faults.Checker.what))
        r.Faults.Checker.violations
      = List.rev !want)

(* The checker's own cost per event, subscribed to a kept probe: a
   clean stream in the fault matrix's mix, built before the measured
   loop. Its flat tables build no key tuple and each applied label is two
   ints appended to its source's run, so only the tables' growth
   allocates: the runs' first doublings, while under [Max_young_wosize],
   land on the minor heap. Measured at 0.0762 minor words per 8-event
   round, against 19.05 with tuple-keyed hash tables and 44.05 with
   polymorphic ones probed through [find_opt]. *)
let test_checker_step_alloc () =
  let rounds = 20_000 in
  let evs =
    Array.init (8 * rounds) (fun i ->
        let r = i / 8 in
        match i mod 8 with
        | 0 -> Ev.Engine_step { seq = i }
        | 1 -> Ev.Link_send { size_bytes = 48 }
        | 2 -> Ev.Link_deliver
        | 3 ->
          Ev.Label_forward { dc = r mod 3; gear = 0; ts = r; oseq = r; inst = 0; epoch = 0 }
        | 4 -> commit (r mod 2) (r mod 3) r
        | 5 -> Ev.Sink_emit { dc = r mod 3; ts = r }
        | 6 ->
          Ev.Proxy_apply { dc = r mod 3; src_dc = 1; gear = 0; ts = r; fallback = false }
        | _ -> Ev.Vec_advance { dc = r mod 3; src = 1; ts = r })
  in
  let probe = Sim.Probe.create () in
  let c = subscribed_checker probe in
  let minor =
    Sim.Probe.with_probe probe (fun () ->
        let minor0 = Gc.minor_words () in
        Array.iteri (fun i ev -> Ev.record ~at:(Sim.Time.of_us i) ev) evs;
        Gc.minor_words () -. minor0)
  in
  let r = streamed_report probe c in
  Alcotest.(check bool) "clean" true (Faults.Checker.ok r);
  Alcotest.(check int) "commits" rounds r.Faults.Checker.commits;
  let per_round = minor /. float_of_int rounds in
  if per_round > 0.08 then
    Alcotest.failf "%.4f minor words per 8-event round (pinned at 0.08)" per_round

(* ---- whole-system property ----------------------------------------------- *)

(* a 3-DC chain deployment under a random (but survivable) plan: whatever
   the plan breaks, every serializer must commit each origin's labels
   exactly once, in FIFO order *)
let run_random_plan ~seed =
  let spec = { (Harness.Build.three_site Harness.Build.chain_config) with serializer_replicas = 2 } in
  let { Harness.Build.topo; dc_sites; rmap; _ } = spec in
  let n_keys = Kvstore.Replica_map.n_keys rmap in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let probe = Sim.Probe.create () in
  let checker = subscribed_checker probe in
  let freg = Faults.Registry.create () in
  let metrics = Harness.Metrics.create ~registry engine ~topo ~dc_sites in
  Sim.Probe.with_probe probe (fun () ->
      let api, _system = Harness.Build.saturn ~registry ~faults:freg engine spec metrics in
      let plan =
        Faults.Plan.random ~seed
          ~link_names:(Faults.Registry.link_names freg)
          ~serializer_names:(Faults.Registry.serializer_names freg)
          ~clock_names:(Faults.Registry.clock_names freg)
          ~max_replica_crashes:1 (* of 2 replicas: the chain survives *)
          ~switch:(Harness.Build.backup_config ~dc_sites)
          ~horizon:(Sim.Time.of_ms 500) ()
      in
      let (_ : Faults.Injector.t) = Faults.Injector.arm ~registry engine freg plan in
      let clients = Harness.Driver.make_clients ~dc_sites ~per_dc:2 in
      let syn =
        Workload.Synthetic.create
          { Workload.Synthetic.default with n_keys; read_ratio = 0.5; seed }
          ~rmap ~topo ~dc_sites
      in
      ignore
        (Harness.Driver.run engine api metrics ~clients
           ~next_op:(fun c -> Workload.Synthetic.next syn ~dc:c.Harness.Client.preferred_dc)
           ~warmup:(Sim.Time.of_ms 100) ~measure:(Sim.Time.of_ms 400)
           ~cooldown:(Sim.Time.of_ms 100)));
  streamed_report probe checker

(* regression pin: plan seed 877 forces a switch at t=38ms with ~40ms of
   bulk traffic still in flight; the old completion rule adopted C2
   instantly (empty payload table) and the late C1-era payloads then
   applied out of per-origin timestamp order.  The epoch-tag drain
   barrier must hold the switch open until that traffic lands. *)
let test_forced_switch_drain_barrier_seed877 () =
  let r = run_random_plan ~seed:877 in
  if not (Faults.Checker.ok r) then
    Alcotest.failf "%s" (Format.asprintf "%a" Faults.Checker.pp r);
  Alcotest.(check bool) "commits flowed" true (r.Faults.Checker.commits > 0);
  Alcotest.(check int) "one switch" 1 r.Faults.Checker.switches

let prop_random_plan_exactly_once_fifo =
  QCheck.Test.make
    ~name:"random fault plans (incl. epoch switches) preserve exactly-once FIFO-per-origin commit"
    ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = run_random_plan ~seed in
      if not (Faults.Checker.ok r) then
        QCheck.Test.fail_reportf "%a" (fun fmt -> Format.fprintf fmt "%a" Faults.Checker.pp) r;
      r.Faults.Checker.commits > 0)

(* the fixed scenario matrix itself stays deterministic and violation-free;
   covers recovery-time plumbing end to end *)
let test_matrix_smoke () =
  let outcomes = Harness.Fault_run.run_matrix ~seed:7 () in
  Alcotest.(check int) "twelve runs" 12 (List.length outcomes);
  Alcotest.(check int) "no violations" 0 (Harness.Fault_run.violations outcomes);
  (* an absolute pin beside ci/faults-digest.txt's seed-42 one *)
  Alcotest.(check string) "matrix digest (seed 7)" "5cb58f66eeec853c87f51bc9093fd435"
    (Harness.Fault_run.matrix_digest outcomes);
  List.iter
    (fun (o : Harness.Fault_run.outcome) ->
      Alcotest.(check bool)
        (o.Harness.Fault_run.scenario ^ "/" ^ o.Harness.Fault_run.system ^ " recovery bounded")
        true
        (o.Harness.Fault_run.recovery_ms >= 0. && o.Harness.Fault_run.recovery_ms < 2000.);
      (* the run's report was streamed; re-check the kept trace after it *)
      Alcotest.(check bool)
        (o.Harness.Fault_run.scenario ^ "/" ^ o.Harness.Fault_run.system ^ " streamed = analyzed")
        true
        (o.Harness.Fault_run.report = Faults.Checker.analyze o.Harness.Fault_run.probe);
      (* every Saturn row's journeys tile, reconfiguration included: a
         label buffered for the next epoch waits inside its ordering span *)
      if String.equal o.Harness.Fault_run.system "saturn" then
        Alcotest.(check (list string))
          (o.Harness.Fault_run.scenario ^ " blame tiles")
          []
          (Harness.Fault_run.blame (Harness.Journey.analyze o.Harness.Fault_run.probe))
            .Harness.Blame.mismatches)
    outcomes;
  let crash_run = List.hd outcomes in
  Alcotest.(check int) "head change healed the chain" 1
    crash_run.Harness.Fault_run.report.Faults.Checker.head_changes;
  (* every reconfig row records exactly one epoch switch in its trace, and
     the series carries the switch annotation the timeline renders *)
  List.iter
    (fun (o : Harness.Fault_run.outcome) ->
      let s = o.Harness.Fault_run.scenario in
      if String.length s >= 8 && String.equal (String.sub s 0 8) "reconfig" then begin
        Alcotest.(check int) (s ^ " one switch") 1
          o.Harness.Fault_run.report.Faults.Checker.switches;
        Alcotest.(check bool) (s ^ " switch annotated") true
          (List.exists
             (fun (_, n) -> String.length n >= 7 && String.equal (String.sub n 0 7) "switch.")
             (Stats.Series.annotations o.Harness.Fault_run.series))
      end)
    outcomes

(* An absolute pin, unlike the run-twice gates: a renderer that changed
   the traced bytes consistently would pass those, not this. The value was
   pinned before the probe's record path went allocation-free; it moved
   once since, when the proxy stopped ending ordering-wait spans it had
   never begun (8 668 fewer span ends on this row). *)
let ser_crash42 =
  lazy (Harness.Fault_run.run_scenario ~seed:42 ~scenario:"ser-crash" ~system:`Saturn ())

let test_row_digest_pinned () =
  let o = Lazy.force ser_crash42 in
  Alcotest.(check int) "events" 895797 o.Harness.Fault_run.n_events;
  Alcotest.(check string) "digest" "42745b719a5d0835" o.Harness.Fault_run.digest

(* the row's exported bytes against the digest the record path hashed: a
   deterministic decode bug in the packed trace passes every run-twice
   gate, but not this *)
let test_row_export_matches_digest () =
  let o = Lazy.force ser_crash42 in
  Alcotest.(check string) "FNV over write_jsonl" "42745b719a5d0835"
    (Helpers.fnv_of_jsonl o.Harness.Fault_run.probe)

(* the five baseline rows build without the run's registry, so its
   meta.bytes.* counters stay with Saturn's rows (see outcome.registry) *)
let test_baseline_rows_count_no_meta_bytes () =
  let meta_bytes (o : Harness.Fault_run.outcome) =
    List.filter
      (fun name -> String.starts_with ~prefix:"meta.bytes." name)
      (List.map fst (Stats.Registry.snapshot o.Harness.Fault_run.registry))
  in
  let row system = Harness.Fault_run.run_scenario ~scenario:"partition" ~system () in
  Alcotest.(check (list string)) "partition/eventual: no meta.bytes counter" []
    (meta_bytes (row `Eventual));
  Alcotest.(check (list string)) "partition/saturn: Saturn's meta.bytes counters"
    [ "meta.bytes.saturn.attached"; "meta.bytes.saturn.heartbeat"; "meta.bytes.saturn.stabilization" ]
    (meta_bytes (row `Saturn))

let suite =
  [
    Alcotest.test_case "link drop reasons" `Quick test_link_drop_reasons;
    Alcotest.test_case "link restore idempotent" `Quick test_link_restore_idempotent;
    Alcotest.test_case "partition cut set" `Quick test_partition_cut_set;
    Alcotest.test_case "registry errors" `Quick test_registry_errors;
    Alcotest.test_case "injector partition round trip" `Quick test_injector_partition_round_trip;
    Alcotest.test_case "injector validates eagerly" `Quick test_injector_validates_eagerly;
    Alcotest.test_case "plan sort + heal time" `Quick test_plan_sort_and_heal_time;
    qtest prop_random_plans_always_heal;
    Alcotest.test_case "switch plan is not restorative" `Quick test_switch_plan_not_restorative;
    qtest prop_random_plans_at_most_one_early_switch;
    Alcotest.test_case "injector rejects switch without system" `Quick
      test_injector_rejects_switch_without_system;
    Alcotest.test_case "injector defers e2. names" `Quick test_injector_e2_names_deferred;
    Alcotest.test_case "switch registers epoch-2 pieces" `Quick test_switch_registers_epoch2_pieces;
    Alcotest.test_case "double switch rejected" `Quick test_double_switch_rejected;
    Alcotest.test_case "checker epoch-scoped commit keys" `Quick
      test_checker_epoch_scopes_commit_keys;
    Alcotest.test_case "checker marker-last invariant" `Quick test_checker_marker_last;
    Alcotest.test_case "checker route monotonicity + duplicate apply" `Quick
      test_checker_route_monotone_and_duplicate_apply;
    Alcotest.test_case "checker clean stream" `Quick test_checker_clean_stream;
    Alcotest.test_case "checker duplicate commit" `Quick test_checker_flags_duplicate_commit;
    Alcotest.test_case "checker reorder" `Quick test_checker_flags_reorder;
    Alcotest.test_case "checker fault counts" `Quick test_checker_counts;
    Alcotest.test_case "checker proxy order" `Quick test_checker_flags_proxy_order;
    Alcotest.test_case "checker version-vector regression" `Quick test_checker_flags_vec_regression;
    Alcotest.test_case "checker unannounced and repeated Switch_done" `Quick
      test_checker_flags_switch_done;
    Alcotest.test_case "checker event-loop order" `Quick test_checker_flags_step_order;
    Alcotest.test_case "checker link conservation" `Quick test_checker_flags_link_conservation;
    Alcotest.test_case "checker negative link size" `Quick test_checker_flags_negative_link_size;
    Alcotest.test_case "checker serializer self-hop" `Quick test_checker_flags_self_hop;
    Alcotest.test_case "checker egress toward invalid dc" `Quick test_checker_flags_invalid_egress;
    Alcotest.test_case "checker negative delay" `Quick test_checker_flags_negative_delay;
    Alcotest.test_case "checker invalid chain-ack seq" `Quick test_checker_flags_invalid_chain_ack;
    Alcotest.test_case "checker step allocation" `Quick test_checker_step_alloc;
    qtest prop_apply_rules_match_model;
    Alcotest.test_case "forced-switch drain barrier (seed 877)" `Quick
      test_forced_switch_drain_barrier_seed877;
    qtest prop_random_plan_exactly_once_fifo;
    Alcotest.test_case "scenario matrix smoke" `Slow test_matrix_smoke;
    Alcotest.test_case "baseline rows count no meta bytes" `Slow
      test_baseline_rows_count_no_meta_bytes;
    Alcotest.test_case "ser-crash row digest pinned (seed 42)" `Slow test_row_digest_pinned;
    Alcotest.test_case "ser-crash row export matches digest (seed 42)" `Slow
      test_row_export_matches_digest;
  ]
