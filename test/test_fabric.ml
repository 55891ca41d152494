(* The shared request fabric over a trivial item: what the legs,
   frontends and storage servers do, with no protocol in the way. *)

type item = { mutable front_at : Sim.Time.t; mutable done_at : Sim.Time.t }

let fresh () = { front_at = Sim.Time.zero; done_at = Sim.Time.zero }
let server_us = 7

(* the system is the fabric itself: every item goes to partition 0 of its
   datacenter, then straight back to a client at [home] *)
let fabric_with ~session ?(frontends = 2) ~home () =
  let engine = Sim.Engine.create () in
  let now fab = Sim.Engine.now (Saturn.Fabric.engine fab) in
  let p =
    {
      (Saturn.Fabric.default_params ~topo:Sim.Ec2.topology
         ~dc_sites:(Array.of_list (Sim.Ec2.first_n 3))
         ~rmap:(Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:4))
      with
      frontends;
    }
  in
  let handlers =
    {
      Saturn.Fabric.arrive = (fun _ ~dc:_ _ -> ());
      front =
        (fun fab ~dc it ->
          it.front_at <- now fab;
          Saturn.Fabric.submit fab ~dc ~part:0 ~cost:(Sim.Time.of_us server_us) it);
      serve = (fun fab ~dc ~part:_ it -> Saturn.Fabric.reply fab ~home ~dc it);
      finish = (fun fab ~dc:_ it -> it.done_at <- now fab);
      deliver = (fun _ ~src:_ ~dst:_ () -> ());
    }
  in
  let meta = Stats.Meta_bytes.create (Stats.Registry.create ()) ~system:"test" in
  (engine,
   Saturn.Fabric.create engine p handlers Saturn.Fabric.no_hooks ~meta ~cmp:Int.compare ~session
     Fun.id)

let fabric ?frontends ~home () = fabric_with ~session:(fun ~home:_ -> ()) ?frontends ~home ()

let drain engine =
  while Sim.Engine.step engine do
    ()
  done

let home = Sim.Ec2.nv

let leg_us ~dc =
  Sim.Time.to_us (Sim.Topology.latency Sim.Ec2.topology home (List.nth (Sim.Ec2.first_n 3) dc))

let test_round_trip_time () =
  let engine, fab = fabric ~home () in
  let it = fresh () in
  Saturn.Fabric.send fab ~home ~dc:1 it;
  drain engine;
  let frontend_us = Saturn.Cost_model.default.Saturn.Cost_model.frontend_us in
  Alcotest.(check int) "2 x leg + frontend + server"
    ((2 * leg_us ~dc:1) + frontend_us + server_us)
    (Sim.Time.to_us it.done_at)

let test_frontends_round_robin () =
  (* six requests at once over three frontends: two waves, not a queue
     of six behind one frontend *)
  let engine, fab = fabric ~frontends:3 ~home () in
  let items = List.init 6 (fun _ -> fresh ()) in
  List.iter (Saturn.Fabric.send fab ~home ~dc:2) items;
  drain engine;
  let fe = Saturn.Cost_model.default.Saturn.Cost_model.frontend_us in
  let leg = leg_us ~dc:2 in
  Alcotest.(check (list int)) "frontend completions"
    [ leg + fe; leg + fe; leg + fe; leg + (2 * fe); leg + (2 * fe); leg + (2 * fe) ]
    (List.map (fun it -> Sim.Time.to_us it.front_at) items)

(* As test_sim pins Link.send: once the queues have grown, a request's
   whole round trip allocates nothing beyond its (here preallocated)
   item *)
let test_round_trip_allocates_nothing () =
  let engine, fab = fabric ~home () in
  let it = fresh () in
  let round () =
    for dc = 0 to 2 do
      Saturn.Fabric.send fab ~home ~dc it
    done;
    drain engine
  in
  (* warm every queue: one round per frontend *)
  round ();
  round ();
  let words = Helpers.allocated (fun () -> for _ = 1 to 2_000 do round () done) in
  Alcotest.(check (float 0.)) "send, frontend, server and reply" 0. words

(* The session table: a client's session is made on its first request
   and the same value serves every later one, whatever the datacenter *)
let test_one_session_per_client () =
  let made = ref 0 in
  let engine, fab =
    fabric_with ~home
      ~session:(fun ~home ->
        incr made;
        (home, ref 0))
      ()
  in
  Alcotest.(check int) "nothing made before a request" 0 !made;
  let request ~client ~dc =
    let ((_, ops) as s) = Saturn.Fabric.session fab ~client ~home in
    incr ops;
    Saturn.Fabric.send fab ~home ~dc (fresh ());
    drain engine;
    s
  in
  let first = List.map (fun client -> request ~client ~dc:0) [ 4; 9; 2 ] in
  Alcotest.(check int) "one per client id" 3 !made;
  let later =
    List.map (fun (client, dc) -> request ~client ~dc) [ (9, 1); (4, 2); (2, 1); (9, 0) ]
  in
  Alcotest.(check int) "no more on later requests" 3 !made;
  Alcotest.(check bool) "later requests get the first session" true
    (List.for_all2 ( == ) (List.map (List.nth first) [ 1; 0; 2; 1 ]) later);
  Alcotest.(check (list int)) "each session saw its client's requests" [ 2; 3; 2 ]
    (List.map (fun (_, ops) -> !ops) first)

(* ---- storage: what every system's partitions share -------------------- *)

(* a fabric over four datacenters at one site, so every bulk wire has the
   same latency and deliveries come out in send order; it carries int
   versions and records what it delivers and makes visible *)
let storage_fabric ?(partitions = 2) ~rmap () =
  let engine = Sim.Engine.create () in
  let delivered = ref [] and visible = ref [] in
  let p =
    {
      (Saturn.Fabric.default_params ~topo:Sim.Ec2.topology ~dc_sites:(Array.make 4 Sim.Ec2.nv) ~rmap)
      with
      partitions;
    }
  in
  let handlers =
    {
      Saturn.Fabric.arrive = (fun _ ~dc:_ _ -> ());
      front = (fun _ ~dc:_ _ -> ());
      serve = (fun _ ~dc:_ ~part:_ _ -> ());
      finish = (fun _ ~dc:_ _ -> ());
      deliver = (fun _ ~src ~dst m -> delivered := (src, dst, m) :: !delivered);
    }
  in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key ~origin_dc:_ ~origin_time:_ ~value ->
          visible := (dc, key, value.Kvstore.Value.payload) :: !visible);
    }
  in
  let meta = Stats.Meta_bytes.create (Stats.Registry.create ()) ~system:"test" in
  let fab =
    Saturn.Fabric.create engine p handlers hooks ~meta ~cmp:Int.compare
      ~session:(fun ~home:_ -> ())
      Fun.id
  in
  (engine, fab, meta, delivered, visible)

let test_ship_update_fans_out () =
  (* key 0 lives at dcs 0, 2 and 3; written at 2 it goes to 0, then 3 *)
  let rmap =
    Kvstore.Replica_map.create ~n_dcs:4 ~n_keys:2 ~assign:(fun key ->
        if key = 0 then [ 3; 0; 2 ] else [ 1 ])
  in
  let engine, fab, meta, delivered, _ = storage_fabric ~rmap () in
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Saturn.Fabric.ship_update fab ~dc:2 ~key:0 ~part:1 ~ts:(Sim.Time.of_ms 5) ~spans:true
        ~size_bytes:40 ~meta_bytes:12 "u0";
      (* a key with no other replica goes nowhere and costs nothing *)
      Saturn.Fabric.ship_update fab ~dc:1 ~key:1 ~part:0 ~ts:(Sim.Time.of_ms 6) ~spans:true
        ~size_bytes:40 ~meta_bytes:12 "u1";
      Saturn.Fabric.ship_update fab ~dc:0 ~key:0 ~part:0 ~ts:(Sim.Time.of_ms 7) ~spans:false
        ~size_bytes:40 ~meta_bytes:5 "u2");
  drain engine;
  Alcotest.(check (list (triple int int string))) "every other replica, ascending"
    [ (2, 0, "u0"); (2, 3, "u0"); (0, 2, "u2"); (0, 3, "u2") ]
    (List.rev !delivered);
  Alcotest.(check int) "one bulk span per destination, only with spans" 2
    (Sim.Probe.open_span_count probe);
  Alcotest.(check int) "bytes x fanout attached" ((12 * 2) + (5 * 2))
    (Stats.Meta_bytes.attached_bytes meta)

let test_install_keeps_newer () =
  let rmap = Kvstore.Replica_map.full ~n_dcs:4 ~n_keys:8 in
  let _, fab, _, _, visible = storage_fabric ~rmap () in
  let install version payload =
    Saturn.Fabric.install fab ~dc:1 ~key:5
      (Kvstore.Value.make ~payload ~size_bytes:1)
      version ~origin_dc:0 ~origin_time:Sim.Time.zero
  in
  let at dc = Option.map (fun v -> v.Kvstore.Value.payload) (Saturn.Fabric.value fab ~dc ~key:5) in
  install 5 50;
  install 3 30;
  Alcotest.(check (option int)) "an older version does not replace" (Some 50) (at 1);
  install 7 70;
  Alcotest.(check (option int)) "a newer one does" (Some 70) (at 1);
  Alcotest.(check (option int)) "other datacenters untouched" None (at 0);
  let store = Saturn.Fabric.store fab ~dc:1 ~part:(Saturn.Fabric.partition fab ~key:5) in
  Alcotest.(check (option int)) "stored with its version" (Some 7)
    (Option.map snd (Kvstore.Store.get store ~key:5));
  Alcotest.(check (list (triple int int int))) "on_visible once per call"
    [ (1, 5, 50); (1, 5, 30); (1, 5, 70) ] (List.rev !visible)

let test_floor_is_min_gear_floor () =
  let rmap = Kvstore.Replica_map.full ~n_dcs:4 ~n_keys:8 in
  let _, fab, _, _, _ = storage_fabric ~partitions:2 ~rmap () in
  let floor dc = Sim.Time.to_us (Saturn.Fabric.floor fab ~dc) in
  let t0 = Saturn.Fabric.stamp fab ~dc:0 ~part:0 ~floor:(Sim.Time.of_ms 100) in
  Alcotest.(check int) "stamped above the floor" 100_001 (Sim.Time.to_us t0);
  (* the stamp read the shared clock once, moving it to 1 µs *)
  Alcotest.(check int) "an idle gear holds the floor at the clock" 1 (floor 0);
  let t1 = Saturn.Fabric.stamp fab ~dc:0 ~part:1 ~floor:(Sim.Time.of_ms 50) in
  Alcotest.(check int) "the lower of the two gears" (Sim.Time.to_us t1) (floor 0);
  Saturn.Fabric.bump_clock fab ~dc:1 (Sim.Time.of_ms 30);
  Alcotest.(check int) "a bumped clock raises its datacenter's floor" 30_000 (floor 1);
  Alcotest.(check int) "and no other's" 0 (floor 2)

let suite =
  [
    Alcotest.test_case "round trip: 2 x leg + frontend + server" `Quick test_round_trip_time;
    Alcotest.test_case "frontends take requests round-robin" `Quick test_frontends_round_robin;
    Alcotest.test_case "round trip allocates nothing" `Quick test_round_trip_allocates_nothing;
    Alcotest.test_case "one session per client id" `Quick test_one_session_per_client;
    Alcotest.test_case "ship_update reaches every other replica" `Quick test_ship_update_fans_out;
    Alcotest.test_case "install keeps the newer version" `Quick test_install_keeps_newer;
    Alcotest.test_case "floor is the minimum gear floor" `Quick test_floor_is_min_gear_floor;
  ]
