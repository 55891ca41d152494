(* The shared request fabric over a trivial item: what the legs,
   frontends and storage servers do, with no protocol in the way. *)

type item = { mutable front_at : Sim.Time.t; mutable done_at : Sim.Time.t }

let fresh () = { front_at = Sim.Time.zero; done_at = Sim.Time.zero }
let server_us = 7

(* the system is the fabric itself: every item goes to partition 0 of its
   datacenter, then straight back to a client at [home] *)
let fabric ?(frontends = 2) ~home () =
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
  (engine, Saturn.Fabric.create engine p handlers Fun.id)

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

let suite =
  [
    Alcotest.test_case "round trip: 2 x leg + frontend + server" `Quick test_round_trip_time;
    Alcotest.test_case "frontends take requests round-robin" `Quick test_frontends_round_robin;
    Alcotest.test_case "round trip allocates nothing" `Quick test_round_trip_allocates_nothing;
  ]
