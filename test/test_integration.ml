(* End-to-end tests of the Saturn system: replication, causal visibility,
   migration, fallback. *)

open Helpers

let test_write_becomes_visible () =
  let engine, system = star_system () in
  let done_ = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:7 ~value:(value 100)
          ~k:(fun () -> done_ := Some ()));
  run_until_some engine done_;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  (* the update must be installed at every replica *)
  for dc = 0 to 2 do
    let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key:7 in
    match Kvstore.Store.get store ~key:7 with
    | Some (v, _) -> Alcotest.(check int) (Printf.sprintf "payload at dc%d" dc) 100 v.Kvstore.Value.payload
    | None -> Alcotest.fail (Printf.sprintf "update missing at dc%d" dc)
  done

let test_causal_order_across_dcs () =
  (* classic causality scenario: c0 writes a at dc0; c1 reads a at dc1 and
     writes b; b must never be visible anywhere before a. *)
  let engine, system = star_system () in
  let visible : (int * int * Sim.Time.t) list ref = ref [] in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value:_ ->
          visible := (dc, key, Sim.Engine.now engine) :: !visible);
    }
  in
  (* rebuild with hooks *)
  let engine, system =
    ignore (engine, system);
    star_system ~hooks ()
  in
  let step = ref 0 in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 11)
          ~k:(fun () -> step := 1));
  (* c1 polls key 1 at dc1 until it sees the write, then writes key 2 *)
  let rec poll () =
    Saturn.System.read system ~client:1 ~home:(home 1) ~dc:1 ~key:1 ~k:(fun v ->
        match v with
        | Some _ -> Saturn.System.update system ~client:1 ~home:(home 1) ~dc:1 ~key:2
            ~value:(value 22) ~k:(fun () -> step := 2)
        | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 5) poll)
  in
  Saturn.System.attach system ~client:1 ~home:(home 1) ~dc:1 ~k:poll;
  Sim.Engine.run ~until:(Sim.Time.of_sec 10.) engine;
  Alcotest.(check int) "both updates issued" 2 !step;
  (* at dc2 (replicates both), key 2 must become visible after key 1 *)
  let at_dc2 = List.filter (fun (dc, _, _) -> dc = 2) !visible in
  let time_of key =
    match List.find_opt (fun (_, k, _) -> k = key) at_dc2 with
    | Some (_, _, t) -> t
    | None -> Alcotest.fail (Printf.sprintf "key %d never visible at dc2" key)
  in
  let t1 = time_of 1 and t2 = time_of 2 in
  if Sim.Time.compare t2 t1 < 0 then
    Alcotest.failf "causality violated at dc2: dependent write visible first (%a < %a)"
      Sim.Time.pp t2 Sim.Time.pp t1

let test_migration_attach () =
  (* a client writes at dc0, migrates to dc1, and must be able to read its
     own write immediately after attach *)
  let engine, system = star_system () in
  let result = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:3 ~value:(value 33)
          ~k:(fun () ->
          Saturn.System.migrate system ~client:0 ~home:(home 0) ~dc:0 ~preferred_dc:0 ~dest_dc:1
              ~k:(fun () ->
              Saturn.System.read system ~client:0 ~home:(home 0) ~dc:1 ~key:3
                  ~k:(fun v -> result := Some v))));
  let v = run_until_some engine result in
  match v with
  | Some v -> Alcotest.(check int) "own write visible after migration" 33 v.Kvstore.Value.payload
  | None -> Alcotest.fail "own write not visible after migration"

let test_peer_mode_converges () =
  (* P-configuration: no serializer tree at all; timestamp fallback must
     still deliver and converge *)
  let engine, system = star_system ~peer_mode:true () in
  let done_ = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:9 ~value:(value 99)
          ~k:(fun () -> done_ := Some ()));
  run_until_some engine done_;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  for dc = 1 to 2 do
    let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key:9 in
    match Kvstore.Store.get store ~key:9 with
    | Some (v, _) -> Alcotest.(check int) (Printf.sprintf "dc%d" dc) 99 v.Kvstore.Value.payload
    | None -> Alcotest.fail (Printf.sprintf "peer mode: update missing at dc%d" dc)
  done

let test_serializer_crash_fallback () =
  (* crash the only serializer: the tree is down, but after switching the
     proxies to fallback, updates still become visible via timestamp order *)
  let engine, system = star_system () in
  Saturn.System.crash_serializer system 0;
  Saturn.System.enter_fallback system;
  let done_ = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:5 ~value:(value 55)
          ~k:(fun () -> done_ := Some ()));
  run_until_some engine done_;
  Sim.Engine.run ~until:(Sim.Time.of_sec 3.) engine;
  for dc = 1 to 2 do
    let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key:5 in
    match Kvstore.Store.get store ~key:5 with
    | Some (v, _) -> Alcotest.(check int) (Printf.sprintf "dc%d" dc) 55 v.Kvstore.Value.payload
    | None -> Alcotest.fail (Printf.sprintf "fallback: update missing at dc%d" dc)
  done

let test_partial_replication_no_leak () =
  (* genuine partial replication: dc2 replicates nothing of key 0, so it
     must never receive key 0's label or payload *)
  let n_keys = 8 in
  let rmap =
    Kvstore.Replica_map.create ~n_dcs:3 ~n_keys ~assign:(fun _ -> [ 0; 1 ])
  in
  let leaked = ref false in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key:_ ~origin_dc:_ ~origin_time:_ ~value:_ -> if dc = 2 then leaked := true);
    }
  in
  let engine, system = star_system ~rmap ~hooks ~n_keys () in
  let done_ = ref None in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:0 ~value:(value 1)
          ~k:(fun () -> done_ := Some ()));
  run_until_some engine done_;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  Alcotest.(check bool) "dc2 received nothing" false !leaked;
  let store2 = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system 2) ~key:0 in
  Alcotest.(check bool) "dc2 store empty" false (Kvstore.Store.mem store2 ~key:0);
  (* and the interested replica did get it *)
  let store1 = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system 1) ~key:0 in
  Alcotest.(check bool) "dc1 store has it" true (Kvstore.Store.mem store1 ~key:0)

let suite =
  [
    Alcotest.test_case "write becomes visible at all replicas" `Quick test_write_becomes_visible;
    Alcotest.test_case "causal order across datacenters" `Quick test_causal_order_across_dcs;
    Alcotest.test_case "migration attach sees own writes" `Quick test_migration_attach;
    Alcotest.test_case "peer mode (P-conf) converges" `Quick test_peer_mode_converges;
    Alcotest.test_case "serializer crash + ts fallback" `Quick test_serializer_crash_fallback;
    Alcotest.test_case "genuine partial replication" `Quick test_partial_replication_no_leak;
  ]
