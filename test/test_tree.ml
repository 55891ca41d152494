(* Tests for the serializer tree, configurations, the mismatch objective and
   the configuration generator/solver. *)

let qtest = QCheck_alcotest.to_alcotest

(* a chain of 3 serializers with 4 DCs:
   dc0,dc1 -> s0 ; dc2 -> s1 ; dc3 -> s2 ; edges s0-s1-s2 *)
let chain_tree () =
  Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 0; 1; 2 |]

let test_tree_validation () =
  Alcotest.check_raises "edge count" (Invalid_argument "Tree.create: a tree over n nodes has n-1 edges")
    (fun () -> ignore (Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1) ] ~attach:[| 0 |]));
  Alcotest.check_raises "disconnected" (Invalid_argument "Tree.create: disconnected") (fun () ->
      ignore (Saturn.Tree.create ~n_serializers:4 ~edges:[ (0, 1); (2, 3); (0, 1) ] ~attach:[| 0 |]));
  Alcotest.check_raises "self edge" (Invalid_argument "Tree.create: invalid edge") (fun () ->
      ignore (Saturn.Tree.create ~n_serializers:2 ~edges:[ (1, 1) ] ~attach:[| 0 |]))

let test_tree_routing () =
  let t = chain_tree () in
  Alcotest.(check int) "next hop 0->2" 1 (Saturn.Tree.next_hop t ~src:0 ~dst:2);
  Alcotest.(check (list int)) "path dc0->dc3" [ 0; 1; 2 ] (Saturn.Tree.serializer_path t ~src_dc:0 ~dst_dc:3);
  Alcotest.(check (list int)) "path within serializer" [ 0 ] (Saturn.Tree.serializer_path t ~src_dc:0 ~dst_dc:1);
  Alcotest.(check (list int)) "behind s0->s1" [ 2; 3 ] (Saturn.Tree.dcs_behind t ~from:0 ~via:1);
  Alcotest.(check (list int)) "behind s1->s0" [ 0; 1 ] (Saturn.Tree.dcs_behind t ~from:1 ~via:0);
  Alcotest.(check (option int)) "routes toward remote" (Some 1) (Saturn.Tree.routes_toward t ~at:0 ~dc:3);
  Alcotest.(check (option int)) "local attachment" None (Saturn.Tree.routes_toward t ~at:0 ~dc:1)

let test_tree_star () =
  let t = Saturn.Tree.star ~n_dcs:5 in
  Alcotest.(check int) "one serializer" 1 (Saturn.Tree.n_serializers t);
  Alcotest.(check (list int)) "all attached" [ 0; 1; 2; 3; 4 ] (Saturn.Tree.dcs_at t 0)

(* random tree generator: n serializers in a random parent structure *)
let random_tree_gen =
  QCheck.Gen.(
    let* n = 2 -- 7 in
    let* parents = list_repeat (n - 1) (int_bound 1000) in
    let edges = List.mapi (fun i p -> (i + 1, p mod (i + 1))) parents in
    let* n_dcs = 2 -- 6 in
    let* attach = list_repeat n_dcs (int_bound (n - 1)) in
    return (Saturn.Tree.create ~n_serializers:n ~edges ~attach:(Array.of_list attach)))

let arbitrary_tree = QCheck.make random_tree_gen

let prop_dcs_behind_partition =
  QCheck.Test.make ~name:"dcs_behind partitions the remote datacenters" ~count:100 arbitrary_tree
    (fun t ->
      let ok = ref true in
      for s = 0 to Saturn.Tree.n_serializers t - 1 do
        let local = Saturn.Tree.dcs_at t s in
        let behind = List.concat_map (fun b -> Saturn.Tree.dcs_behind t ~from:s ~via:b) (Saturn.Tree.neighbors t s) in
        let all = List.sort Int.compare (local @ behind) in
        if all <> List.init (Saturn.Tree.n_dcs t) Fun.id then ok := false
      done;
      !ok)

let prop_path_endpoints =
  QCheck.Test.make ~name:"serializer paths start/end at attachments" ~count:100 arbitrary_tree
    (fun t ->
      let n_dcs = Saturn.Tree.n_dcs t in
      let ok = ref true in
      for a = 0 to n_dcs - 1 do
        for b = 0 to n_dcs - 1 do
          let path = Saturn.Tree.serializer_path t ~src_dc:a ~dst_dc:b in
          (match (path, List.rev path) with
          | first :: _, last :: _ ->
            if first <> Saturn.Tree.serializer_of t ~dc:a then ok := false;
            if last <> Saturn.Tree.serializer_of t ~dc:b then ok := false
          | [], _ | _, [] -> ok := false);
          (* paths never repeat a serializer *)
          if List.sort_uniq Int.compare path <> List.sort Int.compare path then ok := false
        done
      done;
      !ok)

(* ---- Config --------------------------------------------------------------- *)

let test_config_latency () =
  let tree = chain_tree () in
  (* sites: use EC2 NV(0) NC(1) O(2) for the serializers; DCs at NV NV NC O *)
  let config =
    Saturn.Config.create ~tree ~placement:[| 0; 1; 2 |] ~dc_sites:[| 0; 0; 1; 2 |] ()
  in
  (* dc0 -> dc3: dc0(NV)->s0(NV)=0 + s0->s1 (NV-NC 37) + s1->s2 (NC-O 10) + s2->dc3(O)=0 *)
  Alcotest.(check int) "metadata latency" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 5);
  Alcotest.(check int) "with artificial delay" 52_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Saturn.Config.set_delay config ~from:2 ~hop:(Saturn.Config.To_dc 3) (Sim.Time.of_ms 2);
  Alcotest.(check int) "delivery delay" 54_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Alcotest.(check int) "reverse unaffected by directed delays" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:3 ~dst_dc:0));
  Alcotest.check_raises "negative delay" (Invalid_argument "Config.set_delay: negative delay")
    (fun () -> Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (-1));
  let copy = Saturn.Config.copy config in
  Saturn.Config.clear_delays copy;
  Alcotest.(check int) "copy cleared" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency copy Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Alcotest.(check int) "original intact" 54_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3))

(* ---- Mismatch / solver ----------------------------------------------------- *)

let three_dc_problem () =
  let dc_sites = [| Sim.Ec2.nv; Sim.Ec2.nc; Sim.Ec2.o |] in
  let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
  {
    Saturn.Config_solver.topo = Sim.Ec2.topology;
    dc_sites;
    candidates = Saturn.Config_solver.default_candidates ~dc_sites;
    crit = Saturn.Mismatch.uniform ~n_dcs:3 ~bulk;
  }

let test_solver_three_dcs () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let _config, score = Saturn.Config_solver.solve ~seed:5 problem tree in
  (* the star over NV/NC/O: placing the serializer anywhere gives some
     mismatch; the solver must find a placement no worse than every
     single-site alternative it could enumerate *)
  let best_manual =
    List.fold_left
      (fun acc site ->
        let c =
          Saturn.Config.create ~tree ~placement:[| site |]
            ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
        in
        let v = Saturn.Config_solver.optimize_delays problem c in
        Float.min acc v)
      infinity
      (Array.to_list problem.Saturn.Config_solver.candidates)
  in
  if score > best_manual +. 1e-6 then
    Alcotest.failf "solver (%.2f) worse than exhaustive placement (%.2f)" score best_manual

let test_optimize_delays_improves () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  (* serializer at NV: NC->O via NV is 37+49=86 vs bulk 10: late (no delay
     can help); NV->NC is 0+37 matching bulk 37 *)
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv |]
      ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let before = Solver_reference.objective problem.Saturn.Config_solver.crit config Sim.Ec2.topology in
  let after = Saturn.Config_solver.optimize_delays problem config in
  Alcotest.(check bool) "no worse" true (after <= before +. 1e-9);
  (* objective consistency: returned value equals a fresh evaluation *)
  let fresh = Solver_reference.objective problem.Saturn.Config_solver.crit config Sim.Ec2.topology in
  Alcotest.(check (float 1e-6)) "objective consistent" after fresh

let test_mismatch_lower_bound () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nc |]
      ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let crit = problem.Saturn.Config_solver.crit in
  let lb = Solver_reference.lower_bound crit config Sim.Ec2.topology in
  let obj = Solver_reference.objective crit config Sim.Ec2.topology in
  Alcotest.(check bool) "lower bound is a lower bound" true (lb <= obj +. 1e-9)

(* ---- Config generator ------------------------------------------------------ *)

let test_insertions_count () =
  (* a full binary tree with f leaves yields 2f-1 isomorphism classes *)
  let t2 = Saturn.Config_gen.Node (Leaf 0, Leaf 1) in
  Alcotest.(check int) "f=2 gives 3" 3 (List.length (Saturn.Config_gen.insertions t2 ~dc:2));
  let t3 = List.hd (Saturn.Config_gen.insertions t2 ~dc:2) in
  Alcotest.(check int) "f=3 gives 5" 5 (List.length (Saturn.Config_gen.insertions t3 ~dc:3));
  List.iter
    (fun t ->
      Alcotest.(check (list int)) "leaves preserved" [ 0; 1; 2 ]
        (List.sort Int.compare (Saturn.Config_gen.leaves t)))
    (Saturn.Config_gen.insertions t2 ~dc:2)

let test_count_nodes () =
  let open Saturn.Config_gen in
  Alcotest.(check int) "leaf" 1 (count_nodes (Leaf 0));
  Alcotest.(check int) "full tree with 3 leaves" 5
    (count_nodes (Node (Node (Leaf 0, Leaf 1), Leaf 2)))

let test_to_tree () =
  let bt = Saturn.Config_gen.Node (Node (Leaf 0, Leaf 1), Leaf 2) in
  let tree = Saturn.Config_gen.to_tree bt ~n_dcs:3 in
  Alcotest.(check int) "two serializers" 2 (Saturn.Tree.n_serializers tree);
  Alcotest.(check int) "dc2 at root" (Saturn.Tree.serializer_of tree ~dc:2) 0;
  Alcotest.(check bool) "dc0 and dc1 together" true
    (Saturn.Tree.serializer_of tree ~dc:0 = Saturn.Tree.serializer_of tree ~dc:1)

let test_find_configuration_three_dcs () =
  let problem = three_dc_problem () in
  let config, score = Saturn.Config_gen.find_configuration ~seed:7 problem in
  (* must be at least as good as the best solved star *)
  let star = Saturn.Tree.star ~n_dcs:3 in
  let _, star_score = Saturn.Config_solver.solve ~seed:7 problem star in
  if score > star_score +. 1e-6 then
    Alcotest.failf "generator (%.2f) worse than a solved star (%.2f)" score star_score;
  (* metadata latencies should be close to bulk for every pair *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then begin
        let meta =
          Sim.Time.to_ms_float (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:i ~dst_dc:j)
        in
        let bulk =
          Sim.Time.to_ms_float
            (Sim.Topology.latency Sim.Ec2.topology
               problem.Saturn.Config_solver.dc_sites.(i)
               problem.Saturn.Config_solver.dc_sites.(j))
        in
        if Float.abs (meta -. bulk) > 15. then
          Alcotest.failf "pair %d->%d mismatch too large: meta=%.0f bulk=%.0f" i j meta bulk
      end
    done
  done

let test_solver_exact_agrees () =
  (* the heuristic must land on (or near) the exhaustive optimum *)
  let problem = three_dc_problem () in
  List.iter
    (fun tree ->
      let _, exact = Saturn.Config_solver.solve_exact problem tree in
      let _, heuristic = Saturn.Config_solver.solve ~seed:3 problem tree in
      if heuristic < exact -. 1e-6 then
        Alcotest.failf "heuristic (%.2f) beat the exhaustive optimum (%.2f)?!" heuristic exact;
      if heuristic > exact *. 1.10 +. 1e-6 then
        Alcotest.failf "heuristic (%.2f) more than 10%% off the optimum (%.2f)" heuristic exact)
    [
      Saturn.Tree.star ~n_dcs:3;
      Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |];
      Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 1; 2 |];
    ]

let test_solver_exact_guard () =
  let problem = three_dc_problem () in
  let big = Saturn.Tree.create ~n_serializers:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] ~attach:[| 0; 1; 2 |] in
  match Saturn.Config_solver.solve_exact ~max_enum:10 problem big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "enumeration guard must trip"

let test_find_configurations_backups () =
  (* §6.2: backup trees pre-computed to speed up reconfiguration *)
  let problem = three_dc_problem () in
  let ranked = Saturn.Config_gen.find_configurations ~seed:7 ~top:3 problem in
  Alcotest.(check bool) "returns at least one" true (List.length ranked >= 1);
  let scores = List.map snd ranked in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked best-first" true (non_decreasing scores);
  (* the head must agree with find_configuration *)
  let _, best = Saturn.Config_gen.find_configuration ~seed:7 problem in
  Alcotest.(check (float 1e-6)) "head is the winner" best (List.hd scores)

let test_backup_tree_switch () =
  (* pre-compute a backup, crash the primary tree, switch to the backup
     with the forced protocol: data keeps flowing *)
  let problem = three_dc_problem () in
  let ranked = Saturn.Config_gen.find_configurations ~seed:9 ~top:2 problem in
  let primary = fst (List.hd ranked) in
  let backup =
    match ranked with
    | _ :: (b, _) :: _ -> b
    | _ ->
      (* only one distinct configuration survived the pool: fall back to a
         star at a different site as the backup *)
      Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs:3)
        ~placement:[| problem.Saturn.Config_solver.dc_sites.(2) |]
        ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let engine = Sim.Engine.create () in
  let dc_sites = problem.Saturn.Config_solver.dc_sites in
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:8 in
  let params =
    Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites:(Array.copy dc_sites) ~rmap
      ~config:primary
  in
  let system =
    Saturn.System.create ~observer:(Stats.Observer.create ()) engine params Saturn.Fabric.no_hooks
  in
  let home = dc_sites.(0) in
  let wrote_after_switch = ref false in
  Saturn.System.attach system ~client:0 ~home ~dc:0 ~k:(fun () ->
      Saturn.System.update system ~client:0 ~home ~dc:0 ~key:1
          ~value:(Kvstore.Value.make ~payload:1 ~size_bytes:2)
        ~k:(fun () -> ()));
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 100) (fun () ->
      for s = 0 to Saturn.Tree.n_serializers (Saturn.Config.tree primary) - 1 do
        Saturn.System.crash_serializer system s
      done;
      Saturn.System.switch_config system backup ~graceful:false);
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 200) (fun () ->
      Saturn.System.update system ~client:0 ~home ~dc:0 ~key:2
          ~value:(Kvstore.Value.make ~payload:2 ~size_bytes:2)
        ~k:(fun () -> wrote_after_switch := true));
  Sim.Engine.run ~until:(Sim.Time.of_sec 4.) engine;
  Alcotest.(check bool) "writes continued" true !wrote_after_switch;
  Alcotest.(check bool) "switch completed" true (Saturn.System.switch_complete system);
  for dc = 1 to 2 do
    let store = Helpers.store_of_key system ~dc ~key:2 in
    Alcotest.(check bool)
      (Printf.sprintf "key 2 visible at dc%d via the backup tree" dc)
      true
      (Kvstore.Store.mem store ~key:2)
  done

let test_fuse () =
  (* two serializers at the same site with zero delays fuse into one *)
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1 |] in
  let config = Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.nv |] ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc |] () in
  let before = Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:1 in
  let fused = Saturn.Config_gen.fuse config in
  Alcotest.(check int) "one serializer" 1 (Saturn.Tree.n_serializers (Saturn.Config.tree fused));
  Alcotest.(check int) "latency preserved"
    (Sim.Time.to_us before)
    (Sim.Time.to_us (Saturn.Config.metadata_latency fused Sim.Ec2.topology ~src_dc:0 ~dst_dc:1))

let test_fuse_keeps_delayed_pairs () =
  (* a pair with a non-zero delay between them must NOT fuse *)
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1 |] in
  let config = Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.nv |] ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc |] () in
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 1);
  let fused = Saturn.Config_gen.fuse config in
  Alcotest.(check int) "still two serializers" 2 (Saturn.Tree.n_serializers (Saturn.Config.tree fused))

(* ---- Pinned solver output and the reference solver ------------------------ *)

(* Every hop a configuration can delay, with its δ in µs: serializer edges
   in each serializer's neighbor order, then each datacenter's delivery. *)
let hop_delays config =
  let tree = Saturn.Config.tree config in
  let buf = Buffer.create 128 in
  for s = 0 to Saturn.Tree.n_serializers tree - 1 do
    List.iter
      (fun b ->
        Printf.bprintf buf " s%d>s%d=%d" s b
          (Sim.Time.to_us (Saturn.Config.delay config ~from:s ~hop:(To_serializer b))))
      (List.sort Int.compare (Saturn.Tree.neighbors tree s))
  done;
  for dc = 0 to Saturn.Tree.n_dcs tree - 1 do
    let s = Saturn.Tree.serializer_of tree ~dc in
    Printf.bprintf buf " s%d>dc%d=%d" s dc
      (Sim.Time.to_us (Saturn.Config.delay config ~from:s ~hop:(To_dc dc)))
  done;
  Buffer.contents buf

let render (config, obj) =
  Format.asprintf "%a;%s; objective %h" Saturn.Config.pp config (hop_delays config) obj

(* The problem Build.solve_config poses for a scenario setup at bulk factor 1:
   replica-map weights, bulk = link latency. *)
let scenario_problem setup =
  let dc_sites = Harness.Scenario.dc_sites setup in
  let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
  {
    Saturn.Config_solver.topo = Sim.Ec2.topology;
    dc_sites;
    candidates = Saturn.Config_solver.default_candidates ~dc_sites;
    crit = Saturn.Mismatch.of_replica_map (Harness.Scenario.replica_map setup) ~bulk;
  }

let test_pin_default_solve () =
  let setup = Harness.Scenario.default_setup in
  let config, obj = Saturn.Config_gen.find_configuration ~seed:11 (scenario_problem setup) in
  Alcotest.(check string) "solved_config is the seed-11 solve"
    (Format.asprintf "%a" Saturn.Config.pp config)
    (Format.asprintf "%a" Saturn.Config.pp (Harness.Scenario.solved_config setup));
  Alcotest.(check string) "default setup"
    (String.concat ""
       [ "config(tree(6 serializers; edges: 0-1 1-2 2-3 3-4 4-5; attach: dc0→s4 dc1→s3 dc2→s2 ";
         "dc3→s5 dc4→s5 dc5→s1 dc6→s0); placement: s0@6 s1@5 s2@2 s3@1 s4@0 s5@3);";
         " s0>s1=0 s1>s0=0 s1>s2=0 s2>s1=0 s2>s3=0 s3>s2=0 s3>s4=0 s4>s3=0 s4>s5=0 s5>s4=0";
         " s4>dc0=0 s3>dc1=0 s2>dc2=0 s5>dc3=0 s5>dc4=0 s1>dc5=0 s0>dc6=0; objective 0x1.251p+13" ]) (render (config, obj))

let test_pin_plan_solve () =
  (* saturn-cli plan with no arguments: all seven regions, uniform weights *)
  let dc_sites = Array.of_list (Sim.Ec2.first_n 7) in
  let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
  let problem =
    {
      Saturn.Config_solver.topo = Sim.Ec2.topology;
      dc_sites;
      candidates = Saturn.Config_solver.default_candidates ~dc_sites;
      crit = Saturn.Mismatch.uniform ~n_dcs:7 ~bulk;
    }
  in
  Alcotest.(check string) "plan default (weighted mismatch 454.0 ms)"
    (String.concat ""
       [ "config(tree(5 serializers; edges: 0-1 1-2 2-3 3-4; attach: dc0→s3 dc1→s2 dc2→s1 ";
         "dc3→s4 dc4→s4 dc5→s0 dc6→s2); placement: s0@5 s1@2 s2@1 s3@0 s4@3);";
         " s0>s1=0 s1>s0=0 s1>s2=0 s2>s1=0 s2>s3=0 s3>s2=0 s3>s4=0 s4>s3=0";
         " s3>dc0=0 s2>dc1=0 s1>dc2=0 s4>dc3=0 s4>dc4=0 s0>dc5=0 s2>dc6=0; objective 0x1.c6p+8" ])
    (render (Saturn.Config_gen.find_configuration ~seed:11 problem))

(* Random solver instances: 3–6 datacenters, one per site of a random
   integer-ms topology, weights with many zeros, bulk scaled by 0.5–2, a tree
   grown by Config_gen.insertions and a random seed. *)
type instance = {
  problem : Saturn.Config_solver.problem;
  tree : Saturn.Tree.t;
  placement : int array;
  seed : int;
  fast : bool;
}

let instance_gen =
  QCheck.Gen.(
    let* n = 3 -- 6 in
    let* upper = list_repeat (n * n) (1 -- 120) in
    let upper = Array.of_list upper in
    let latency_ms =
      Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else upper.((min i j * n) + max i j)))
    in
    let* weights = list_repeat (n * n) (frequency [ (3, return 0); (2, 1 -- 9) ]) in
    let weights = Array.of_list weights in
    let* factor = float_range 0.5 2. in
    let* picks = list_repeat n (int_bound 1000) in
    let bt =
      List.fold_left
        (fun (bt, dc) pick ->
          if dc >= n then (bt, dc + 1)
          else
            let options = Saturn.Config_gen.insertions bt ~dc in
            (List.nth options (pick mod List.length options), dc + 1))
        (Saturn.Config_gen.Node (Leaf 0, Leaf 1), 2)
        picks
      |> fst
    in
    let tree = Saturn.Config_gen.to_tree bt ~n_dcs:n in
    let* placement = list_repeat (Saturn.Tree.n_serializers tree) (int_bound (n - 1)) in
    let* seed = int_bound 10_000 in
    let* fast = bool in
    let topo = Sim.Topology.create ~names:(Array.init n string_of_int) ~latency_ms in
    let bulk i j =
      Sim.Time.of_us (int_of_float (float_of_int (Sim.Topology.latency topo i j) *. factor))
    in
    let crit =
      { Saturn.Mismatch.n_dcs = n; weight = (fun i j -> float_of_int weights.((i * n) + j)); bulk }
    in
    let dc_sites = Array.init n Fun.id in
    let problem =
      { Saturn.Config_solver.topo; dc_sites; candidates = Saturn.Config_solver.default_candidates ~dc_sites; crit }
    in
    return { problem; tree; placement = Array.of_list placement; seed; fast })

let arbitrary_instance =
  QCheck.make
    ~print:(fun i ->
      Format.asprintf "%a placement [%s] seed %d fast %b" Saturn.Tree.pp i.tree
        (String.concat ";" (Array.to_list (Array.map string_of_int i.placement)))
        i.seed i.fast)
    instance_gen

let check_same what want got =
  if want <> got then QCheck.Test.fail_reportf "%s:@.reference %s@.compiled  %s" what want got

let prop_solver_matches_reference =
  QCheck.Test.make ~name:"compiled solver matches the list-based reference to the bit" ~count:300
    arbitrary_instance (fun i ->
      let fresh () =
        Saturn.Config.create ~tree:i.tree ~placement:(Array.copy i.placement)
          ~dc_sites:(Array.copy i.problem.dc_sites) ()
      in
      let c_ref = fresh () and c_lib = fresh () in
      let o_ref = Solver_reference.optimize_delays i.problem c_ref in
      let o_lib = Saturn.Config_solver.optimize_delays i.problem c_lib in
      check_same "optimize_delays" (render (c_ref, o_ref)) (render (c_lib, o_lib));
      let placed rng_solve =
        render (rng_solve ?fast:(Some i.fast) ?restarts:None ~rng:(Sim.Rng.create ~seed:i.seed) i.problem i.tree)
      in
      check_same "optimize_placement" (placed Solver_reference.optimize_placement)
        (placed Saturn.Config_solver.optimize_placement);
      let ranked f = String.concat "\n" (List.map render (f ~top:3 i.problem)) in
      check_same "find_configurations"
        (ranked (Solver_reference.find_configurations ~seed:i.seed))
        (ranked (Saturn.Config_gen.find_configurations ~seed:i.seed));
      true)

(* Scenario.solved_config memoizes per setup shape; the replica map, and so
   the solved tree, depends on n_keys too. *)
let test_solved_config_memo_key () =
  let setup n_keys seed = { Harness.Scenario.default_setup with n_dcs = 5; n_keys; seed } in
  let fresh setup =
    let spec =
      Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:(Harness.Scenario.dc_sites setup)
        ~rmap:(Harness.Scenario.replica_map setup)
    in
    Format.asprintf "%a" Saturn.Config.pp (Harness.Build.solve_config spec)
  in
  let memo setup = Format.asprintf "%a" Saturn.Config.pp (Harness.Scenario.solved_config setup) in
  (* seed 17: 20 keys first; seed 18: 50 keys first *)
  List.iter
    (fun (seed, order) ->
      let setups = List.map (fun k -> setup k seed) order in
      let memoized = List.map memo setups in
      List.iter2
        (fun s m -> Alcotest.(check string) (Printf.sprintf "%d keys, seed %d" s.Harness.Scenario.n_keys seed) (fresh s) m)
        setups memoized;
      Alcotest.(check bool) (Printf.sprintf "seed %d: the two key counts solve differently" seed) true
        (List.nth memoized 0 <> List.nth memoized 1))
    [ (17, [ 20; 50 ]); (18, [ 50; 20 ]) ]

let test_fuse_carries_delays () =
  (* s0 and s1 fuse; the renumbered s1-s2 edge keeps its δ both ways *)
  let tree = Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 1; 2 |] in
  let dc_sites = [| Sim.Ec2.nv; Sim.Ec2.nv; Sim.Ec2.nc |] in
  let config = Saturn.Config.create ~tree ~placement:(Array.copy dc_sites) ~dc_sites () in
  Saturn.Config.set_delay config ~from:1 ~hop:(Saturn.Config.To_serializer 2) (Sim.Time.of_ms 5);
  Saturn.Config.set_delay config ~from:2 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 3);
  let fused = Saturn.Config_gen.fuse config in
  Alcotest.(check int) "two serializers" 2 (Saturn.Tree.n_serializers (Saturn.Config.tree fused));
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check int) (Printf.sprintf "dc%d->dc%d latency preserved" i j)
        (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:i ~dst_dc:j))
        (Sim.Time.to_us (Saturn.Config.metadata_latency fused Sim.Ec2.topology ~src_dc:i ~dst_dc:j))
    done
  done

(* The compiled solver scores placements and δ over flat arrays; the list
   and Hashtbl evaluator it replaced allocated about 118 M minor words on
   this solve. *)
let test_solve_allocation () =
  let setup = Harness.Scenario.default_setup in
  let spec =
    Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:(Harness.Scenario.dc_sites setup)
      ~rmap:(Harness.Scenario.replica_map setup)
  in
  let before = Gc.minor_words () in
  ignore (Harness.Build.solve_config spec);
  let words = Gc.minor_words () -. before in
  if words > 12e6 then Alcotest.failf "default solve allocated %.1f M minor words (limit 12 M)" (words /. 1e6)

let suite =
  [
    Alcotest.test_case "tree validation" `Quick test_tree_validation;
    Alcotest.test_case "tree routing" `Quick test_tree_routing;
    Alcotest.test_case "star tree" `Quick test_tree_star;
    qtest prop_dcs_behind_partition;
    qtest prop_path_endpoints;
    Alcotest.test_case "config metadata latency" `Quick test_config_latency;
    Alcotest.test_case "solver beats exhaustive star placements" `Quick test_solver_three_dcs;
    Alcotest.test_case "delay optimization never hurts" `Quick test_optimize_delays_improves;
    Alcotest.test_case "mismatch lower bound" `Quick test_mismatch_lower_bound;
    Alcotest.test_case "Alg 3 insertion enumeration (2f-1)" `Quick test_insertions_count;
    Alcotest.test_case "binary-tree node counting" `Quick test_count_nodes;
    Alcotest.test_case "binary tree to serializer tree" `Quick test_to_tree;
    Alcotest.test_case "Alg 3 end-to-end on 3 DCs" `Quick test_find_configuration_three_dcs;
    Alcotest.test_case "exhaustive solver agrees with heuristic" `Quick test_solver_exact_agrees;
    Alcotest.test_case "exhaustive solver enumeration guard" `Quick test_solver_exact_guard;
    Alcotest.test_case "backup trees are ranked (§6.2)" `Quick test_find_configurations_backups;
    Alcotest.test_case "failover to a pre-computed backup tree" `Quick test_backup_tree_switch;
    Alcotest.test_case "serializer fusion" `Quick test_fuse;
    Alcotest.test_case "fusion respects delays" `Quick test_fuse_keeps_delayed_pairs;
    Alcotest.test_case "fusion carries delays on surviving edges" `Quick test_fuse_carries_delays;
    Alcotest.test_case "pinned solve: default setup" `Quick test_pin_default_solve;
    Alcotest.test_case "pinned solve: plan default" `Quick test_pin_plan_solve;
    qtest prop_solver_matches_reference;
    Alcotest.test_case "solved_config memo key includes n_keys" `Quick test_solved_config_memo_key;
    Alcotest.test_case "default solve allocates at most 12 M words" `Quick test_solve_allocation;
  ]
