(* System-level semantic tests: Algorithm 1 attach cases, clock skew,
   LWW convergence, bulk-path inflation and the cost model. *)

open Helpers

let test_attach_local_label_instant () =
  (* Alg 1 line 4: a causal past generated here never blocks the attach *)
  let engine, system = star_system () in
  let t_attach = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 1)
          ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
              t_attach := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) engine;
  match !t_attach with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    (* only the intra-dc round trip (2 x 250us) plus frontend time *)
    if Sim.Time.to_us d > 2_000 then
      Alcotest.failf "local attach should be instant, took %a" Sim.Time.pp d

let test_attach_remote_update_label_waits () =
  (* Alg 1 third case: attaching remotely with a fresh update label must
     wait for per-source stabilization *)
  let engine, system = star_system () in
  let dur = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 1)
          ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:1 ~k:(fun () ->
              dur := Some (Sim.Time.sub (Sim.Engine.now engine) t0))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  match !dur with
  | None -> Alcotest.fail "attach never completed"
  | Some d ->
    let ms = Sim.Time.to_ms_float d in
    (* NV->NC request is 37ms each way; the wait for the O (49ms into NV...)
       sources to stabilize past the fresh write overlaps the travel; total
       must exceed a plain RTT *)
    if ms < 74.0 then Alcotest.failf "conservative attach finished too fast: %.1f ms" ms;
    if ms > 200.0 then Alcotest.failf "conservative attach too slow: %.1f ms" ms

let test_migration_beats_conservative_on_near_pair () =
  let engine, system = star_system ~n_dcs:4 () in
  (* measure attach at dc1 (NC) from dc2 (O): 10ms apart; the star
     serializer sits at NV so the label path is 49+37=86ms... use the
     conservative wait dominated by Ireland (74ms into NC) as the contrast *)
  let mig = ref None and cons = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 2) ~dc:2 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 2) ~dc:2 ~key:1 ~value:(value 1)
          ~k:(fun () ->
          let t0 = Sim.Engine.now engine in
          Saturn.System.migrate system ~client:0 ~home:(home 2) ~dc:2 ~preferred_dc:2 ~dest_dc:1
              ~k:(fun () ->
              mig := Some (Sim.Time.sub (Sim.Engine.now engine) t0);
              (* go home, write again, then attach conservatively *)
              Saturn.System.attach system ~client:0 ~home:(home 2) ~dc:2 ~k:(fun () ->
                  Saturn.System.update system ~client:0 ~home:(home 2) ~dc:2 ~key:2 ~value:(value 2)
                      ~k:(fun () ->
                      let t1 = Sim.Engine.now engine in
                      Saturn.System.attach system ~client:0 ~home:(home 2) ~dc:1 ~k:(fun () ->
                          cons := Some (Sim.Time.sub (Sim.Engine.now engine) t1)))))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 3.) engine;
  match (!mig, !cons) with
  | Some _, Some _ -> () (* both paths complete; relative speed depends on topology *)
  | _ -> Alcotest.fail "migration or conservative attach never completed"

let test_clock_skew_preserves_causality () =
  (* give each datacenter a different clock offset; the sink/gear discipline
     must still deliver causally *)
  let engine = Sim.Engine.create () in
  let n_dcs = 3 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys:8 in
  let tree = Saturn.Tree.star ~n_dcs in
  let config = Saturn.Config.create ~tree ~placement:[| dc_sites.(0) |] ~dc_sites () in
  let visible = ref [] in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value:_ -> visible := (dc, key) :: !visible);
    }
  in
  let params = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let system = Saturn.System.create ~observer:(Stats.Observer.create ()) engine params hooks in
  (* skew the datacenters' clocks before anything reads them *)
  Array.iteri
    (fun dc d -> Saturn.Fabric.bump_clock (Saturn.System.fabric system) ~dc (Sim.Time.of_ms d))
    [| 20; -15; 0 |];
  (* the classic chain: write at the fast-clock DC, read at the slow-clock
     DC, dependent write there; causal order must still hold at dc2 *)
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 11)
          ~k:(fun () -> ()));
  let rec poll () =
    Saturn.System.read system ~client:1 ~home:(home 1) ~dc:1 ~key:1 ~k:(function
      | Some _ -> Saturn.System.update system ~client:1 ~home:(home 1) ~dc:1 ~key:2
          ~value:(value 22) ~k:(fun () -> ())
      | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 5) poll)
  in
  Saturn.System.attach system ~client:1 ~home:(home 1) ~dc:1 ~k:poll;
  Sim.Engine.run ~until:(Sim.Time.of_sec 3.) engine;
  let at2 = List.rev (List.filter (fun (dc, _) -> dc = 2) !visible) in
  (match (List.find_index (fun (_, k) -> k = 1) at2, List.find_index (fun (_, k) -> k = 2) at2) with
  | Some i1, Some i2 ->
    if i2 < i1 then Alcotest.fail "clock skew broke causal delivery at dc2"
  | _ -> Alcotest.fail "updates missing at dc2");
  (* the gear discipline itself *)
  let clock_fast = Sim.Clock.create engine in
  let clock_slow = Sim.Clock.create engine in
  Sim.Clock.bump clock_fast (Sim.Time.of_ms 20);
  Sim.Clock.bump clock_slow (Sim.Time.of_ms (-20));
  let fast = Saturn.Gear.create clock_fast ~dc:0 ~gear_id:0 in
  let slow = Saturn.Gear.create clock_slow ~dc:0 ~gear_id:1 in
  let l1 = Saturn.Gear.generate_ts fast ~client_ts:Sim.Time.zero in
  let l2 = Saturn.Gear.generate_ts slow ~client_ts:l1 in
  Alcotest.(check bool) "causality across skewed gears" true (Sim.Time.compare l2 l1 > 0)

let test_lww_convergence_on_conflict () =
  (* two concurrent writes to the same key at different DCs: all replicas
     must converge to the same winner *)
  let engine, system = star_system () in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:5 ~value:(value 100)
          ~k:(fun () -> ()));
  Saturn.System.attach system ~client:1 ~home:(home 1) ~dc:1 ~k:(fun () ->
      Saturn.System.update system ~client:1 ~home:(home 1) ~dc:1 ~key:5 ~value:(value 200)
          ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  let winner dc =
    let store = Helpers.store_of_key system ~dc ~key:5 in
    match Kvstore.Store.get store ~key:5 with
    | Some (v, _) -> v.Kvstore.Value.payload
    | None -> Alcotest.failf "key 5 missing at dc%d" dc
  in
  let w0 = winner 0 in
  Alcotest.(check int) "dc1 agrees" w0 (winner 1);
  Alcotest.(check int) "dc2 agrees" w0 (winner 2)

let test_bulk_factor_slows_bulk_only () =
  let engine = Sim.Engine.create () in
  let n_dcs = 2 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys:4 in
  let tree = Saturn.Tree.star ~n_dcs in
  let config = Saturn.Config.create ~tree ~placement:[| dc_sites.(0) |] ~dc_sites () in
  let seen_at = ref None in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time ~value:_ ->
          seen_at := Some (Sim.Time.sub (Sim.Engine.now engine) origin_time));
    }
  in
  let p = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let params = { p with geo = { p.geo with bulk_factor = 2.0 } } in
  let system = Saturn.System.create ~observer:(Stats.Observer.create ()) engine params hooks in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 1)
          ~k:(fun () -> ()));
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) engine;
  match !seen_at with
  | None -> Alcotest.fail "update never visible"
  | Some d ->
    (* NV->NC is 37ms; with bulk_factor 2.0 the payload takes ~74ms and
       visibility is payload-bound *)
    let ms = Sim.Time.to_ms_float d in
    if ms < 74.0 || ms > 90.0 then Alcotest.failf "expected ~74ms (2x bulk), got %.1f" ms

let test_counters () =
  let engine, system = star_system () in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 1)
          ~k:(fun () ->
          Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:2 ~value:(value 2)
              ~k:(fun () -> ())));
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  Alcotest.(check int) "updates originated" 2 (Saturn.System.total_updates system);
  (* each update applied at the 2 other replicas *)
  Alcotest.(check int) "remote applies" 4 (Saturn.System.total_remote_applied system)

(* ---- cost model -------------------------------------------------------------- *)

let test_cost_model_shape () =
  let cm = Saturn.Cost_model.default in
  let ev = Saturn.Cost_model.eventual_write_us cm ~size_bytes:2 in
  let sat = Saturn.Cost_model.saturn_write_us cm ~size_bytes:2 in
  let gr = Saturn.Cost_model.gentlerain_write_us cm ~size_bytes:2 in
  let cure3 = Saturn.Cost_model.cure_write_us cm ~n_dcs:3 ~size_bytes:2 in
  let cure7 = Saturn.Cost_model.cure_write_us cm ~n_dcs:7 ~size_bytes:2 in
  Alcotest.(check bool) "eventual cheapest" true (ev <= sat && sat <= gr);
  Alcotest.(check bool) "cure grows with dcs" true (cure7 > cure3);
  Alcotest.(check bool) "cure above scalar systems" true (cure3 > gr);
  (* value size monotone *)
  let small = Saturn.Cost_model.eventual_read_us cm ~size_bytes:8 in
  let large = Saturn.Cost_model.eventual_read_us cm ~size_bytes:2048 in
  Alcotest.(check bool) "size raises cost" true (large > small);
  (* stabilization: cure pays more than gentlerain *)
  Alcotest.(check bool) "vector stabilization dearer" true
    (Saturn.Cost_model.cure_stab_us cm ~n_dcs:7 > Saturn.Cost_model.gentlerain_stab_us cm)

let test_label_size_constant () =
  (* the metadata footprint is independent of everything *)
  Alcotest.(check int) "17 bytes" 17 Saturn.Label.size_bytes

(* ---- replica map bitset edges -------------------------------------------------- *)

let test_replica_map_bitset_boundaries () =
  (* n_keys around the byte boundary of the bitset *)
  List.iter
    (fun n_keys ->
      let rm = Kvstore.Replica_map.create ~n_dcs:2 ~n_keys ~assign:(fun k -> [ k mod 2 ]) in
      for key = 0 to n_keys - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "key %d of %d" key n_keys)
          true
          (Kvstore.Replica_map.replicates rm ~dc:(key mod 2) ~key)
      done)
    [ 7; 8; 9; 16; 17 ]

(* A local read round trip on a quiet deployment (its timers a minute
   apart, so only the read's own four events run: out leg, frontend,
   storage server, back leg) allocates its request record (8 words), its
   [Read] op (2) and the [Some value] handed to the continuation (2).
   The legs, queues and completions allocate nothing, and the client has
   already observed the version's label, so its causal past does not
   move. *)
let rec step_until_some engine r =
  match !r with None -> if Sim.Engine.step engine then step_until_some engine r | Some _ -> ()

let test_read_round_trip_words () =
  let minute = Sim.Time.of_sec 60. in
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:8 in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let config = Saturn.Config.create ~tree ~placement:[| dc_sites.(0) |] ~dc_sites () in
  let p = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let params =
    { p with
      geo =
        { p.geo with
          cost =
            { Saturn.Cost_model.default with
              sink_period = minute;
              heartbeat_period = minute;
              stabilization_period = minute };
        };
    }
  in
  let system =
    Saturn.System.create ~observer:(Stats.Observer.create ()) engine params Saturn.Fabric.no_hooks
  in
  let home = dc_sites.(0) in
  let got = ref None in
  let k v = got := v in
  let round_trip () =
    got := None;
    Saturn.System.read system ~client:0 ~home ~dc:0 ~key:3 ~k;
    step_until_some engine got
  in
  Saturn.System.update system ~client:0 ~home ~dc:0 ~key:3 ~value:(value 7) ~k:ignore;
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) engine;
  (* warm-up: the legs' and servers' rings grow on their first push *)
  round_trip ();
  let rounds = 1_000 in
  let words = Helpers.allocated (fun () -> for _ = 1 to rounds do round_trip () done) in
  (match !got with
  | Some v -> Alcotest.(check int) "read the update" 7 v.Kvstore.Value.payload
  | None -> Alcotest.fail "read did not complete");
  Alcotest.(check (float 1e-9)) "words per round trip" 12. (words /. float_of_int rounds)

(* A ceiling on the words per op of a short closed-loop Saturn run (the
   shootout's Saturn row: 50 % writes, set-up and percentiles included),
   so closures cannot creep back into the request path or the label
   plane. The row costs 100 words per op (the ceiling is 1.15 times
   that); with per-label chain tables and confirm closures it cost 149,
   with the continuation-passing client path 229. *)
let test_saturn_closed_loop_words_per_op () =
  let row = ref None in
  let words = Helpers.allocated (fun () -> row := Some (Harness.Shootout.run_system "saturn")) in
  match !row with
  | None -> Alcotest.fail "no row"
  | Some r ->
    let per_op = words /. float_of_int r.Harness.Shootout.ops in
    let ceiling = 115. in
    if per_op > ceiling then
      Alcotest.failf "saturn shootout row: %.1f words/op, above the %.0f ceiling" per_op ceiling

let suite =
  [
    Alcotest.test_case "attach with a local label is instant" `Quick test_attach_local_label_instant;
    Alcotest.test_case "remote attach with fresh label waits" `Quick test_attach_remote_update_label_waits;
    Alcotest.test_case "migration and conservative paths both live" `Quick
      test_migration_beats_conservative_on_near_pair;
    Alcotest.test_case "clock skew: gear discipline" `Quick test_clock_skew_preserves_causality;
    Alcotest.test_case "LWW convergence under conflict" `Quick test_lww_convergence_on_conflict;
    Alcotest.test_case "bulk_factor inflates payload path" `Quick test_bulk_factor_slows_bulk_only;
    Alcotest.test_case "system counters" `Quick test_counters;
    Alcotest.test_case "local read round trip: exact words" `Quick test_read_round_trip_words;
    Alcotest.test_case "closed loop: words per op ceiling" `Quick test_saturn_closed_loop_words_per_op;
    Alcotest.test_case "cost model shape" `Quick test_cost_model_shape;
    Alcotest.test_case "labels are constant-size" `Quick test_label_size_constant;
    Alcotest.test_case "replica map bitset boundaries" `Quick test_replica_map_bitset_boundaries;
  ]
