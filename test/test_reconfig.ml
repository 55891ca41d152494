(* Integration tests for on-line reconfiguration (§6.2) and fault
   tolerance: tree switches under live traffic, serializer failures with
   the timestamp fallback, and chain-replicated serializers. *)

open Helpers

(* a live workload: [writers] clients per DC writing continuously *)
let start_writers engine system ~n_dcs ~until =
  let stop = Sim.Time.of_sec until in
  let payload = ref 0 in
  let issued = ref [] in
  let rec loop dc () =
    if Sim.Time.compare (Sim.Engine.now engine) stop < 0 then begin
      incr payload;
      let p = !payload in
      Saturn.System.update system ~client:(100 + dc) ~home:(home dc) ~dc ~key:(p mod 16)
        ~value:(Kvstore.Value.make ~payload:p ~size_bytes:2)
        ~k:(fun () ->
          issued := p :: !issued;
          Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 3) (loop dc))
    end
  in
  for dc = 0 to n_dcs - 1 do
    Saturn.System.attach system ~client:(100 + dc) ~home:(home dc) ~dc ~k:(loop dc)
  done;
  issued

let check_convergence system ~n_dcs ~n_keys =
  for key = 0 to n_keys - 1 do
    let versions =
      List.filter_map
        (fun dc ->
          let store = Helpers.store_of_key system ~dc ~key in
          Option.map (fun ((v : Kvstore.Value.t), _) -> v.Kvstore.Value.payload)
            (Kvstore.Store.get store ~key))
        (List.init n_dcs Fun.id)
    in
    match versions with
    | [] -> ()
    | first :: rest ->
      if not (List.for_all (fun v -> v = first) rest) then
        Alcotest.failf "key %d diverged: %s" key
          (String.concat "," (List.map string_of_int versions))
  done

let alt_config ~dc_sites =
  (* a chain s0-s1 with dc0,dc1 at s0 and dc2 at s1 — different from the
     star the fixture starts with *)
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |] in
  Saturn.Config.create ~tree ~placement:[| dc_sites.(0); dc_sites.(2) |]
    ~dc_sites:(Array.copy dc_sites) ()

let test_graceful_switch_under_load () =
  let engine, system = star_system ~n_keys:16 () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let issued = start_writers engine system ~n_dcs:3 ~until:1.5 in
  (* switch trees mid-run *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 500) (fun () ->
      Saturn.System.switch_config system (alt_config ~dc_sites) ~graceful:true);
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  Alcotest.(check bool) "switch completed" true (Saturn.System.switch_complete system);
  Alcotest.(check bool) "traffic flowed" true (List.length !issued > 100);
  check_convergence system ~n_dcs:3 ~n_keys:16

let test_forced_switch_after_crash () =
  let engine, system = star_system ~n_keys:16 () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let issued = start_writers engine system ~n_dcs:3 ~until:1.5 in
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 500) (fun () ->
      (* the single serializer of C1 dies; switch via the slow protocol *)
      Saturn.System.crash_serializer system 0;
      Saturn.System.switch_config system (alt_config ~dc_sites) ~graceful:false);
  Sim.Engine.run ~until:(Sim.Time.of_sec 6.) engine;
  Alcotest.(check bool) "switch completed" true (Saturn.System.switch_complete system);
  Alcotest.(check bool) "traffic flowed" true (List.length !issued > 100);
  check_convergence system ~n_dcs:3 ~n_keys:16

let test_causality_across_graceful_switch () =
  (* the c0-writes / c1-reads-then-writes scenario of the integration suite,
     with the switch racing the causal chain *)
  let visible = ref [] in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value:_ ->
          visible := (dc, key) :: !visible);
    }
  in
  let engine, system = star_system ~hooks ~n_keys:16 () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 3) in
  let step = ref 0 in
  Saturn.System.attach system ~client:0 ~home:(home 0) ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home:(home 0) ~dc:0 ~key:1 ~value:(value 11)
          ~k:(fun () -> step := 1));
  let rec poll () =
    Saturn.System.read system ~client:1 ~home:(home 1) ~dc:1 ~key:1 ~k:(fun v ->
        match v with
        | Some _ -> Saturn.System.update system ~client:1 ~home:(home 1) ~dc:1 ~key:2
            ~value:(value 22) ~k:(fun () -> step := 2)
        | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 5) poll)
  in
  Saturn.System.attach system ~client:1 ~home:(home 1) ~dc:1 ~k:poll;
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 20) (fun () ->
      Saturn.System.switch_config system (alt_config ~dc_sites) ~graceful:true);
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  Alcotest.(check int) "chain completed" 2 !step;
  let at2 = List.rev (List.filter (fun (dc, _) -> dc = 2) !visible) in
  (match (List.find_index (fun (_, k) -> k = 1) at2, List.find_index (fun (_, k) -> k = 2) at2) with
  | Some i1, Some i2 ->
    if i2 < i1 then Alcotest.fail "dependent update visible before its dependency across the switch"
  | _ -> Alcotest.fail "updates missing at dc2")

let test_replicated_serializer_survives_crash_under_load () =
  let engine, system = star_system ~n_keys:16 ~serializer_replicas:3 () in
  let issued = start_writers engine system ~n_dcs:3 ~until:1.0 in
  (match Saturn.System.service system with
  | Some service ->
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 300) (fun () ->
        Saturn.Service.crash_replica service ~serializer:0 ~replica:0);
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 600) (fun () ->
        Saturn.Service.crash_replica service ~serializer:0 ~replica:1)
  | None -> Alcotest.fail "expected a metadata service");
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  Alcotest.(check bool) "traffic flowed" true (List.length !issued > 100);
  check_convergence system ~n_dcs:3 ~n_keys:16

let test_tree_partition_heals () =
  (* cut the serializer-to-dc path indirectly by cutting a tree edge of a
     two-serializer config; traffic must stall and then heal losslessly *)
  let engine = Sim.Engine.create () in
  let n_dcs = 3 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys:16 in
  let config = alt_config ~dc_sites in
  let p = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let params = { p with geo = { p.geo with partitions = 2 } } in
  let system =
    Saturn.System.create ~observer:(Stats.Observer.create ()) engine params Saturn.Fabric.no_hooks
  in
  let issued = start_writers engine system ~n_dcs ~until:1.5 in
  (match Saturn.System.service system with
  | Some service ->
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 300) (fun () -> Saturn.Service.cut_edge service 0 1);
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 900) (fun () -> Saturn.Service.restore_edge service 0 1)
  | None -> Alcotest.fail "expected a metadata service");
  Sim.Engine.run ~until:(Sim.Time.of_sec 6.) engine;
  Alcotest.(check bool) "traffic flowed" true (List.length !issued > 100);
  check_convergence system ~n_dcs:3 ~n_keys:16

let suite =
  [
    Alcotest.test_case "graceful tree switch under load" `Quick test_graceful_switch_under_load;
    Alcotest.test_case "forced switch after serializer crash" `Quick test_forced_switch_after_crash;
    Alcotest.test_case "causality preserved across a switch" `Quick test_causality_across_graceful_switch;
    Alcotest.test_case "replicated serializer survives crashes under load" `Quick
      test_replicated_serializer_survives_crash_under_load;
    Alcotest.test_case "tree partition heals losslessly" `Quick test_tree_partition_heals;
  ]
