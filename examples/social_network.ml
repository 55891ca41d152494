(* A social network on Saturn — the paper's §7.4 scenario as a library
   walkthrough.

     dune exec examples/social_network.exe

   Generates a synthetic Facebook-like graph, partitions users across the
   seven EC2 regions with bounded replication, and drives the Benevenuto
   et al. operation mix against Saturn, printing the numbers an operator
   would care about: locality of the placement, remote-read rate,
   throughput and update visibility. *)

let () =
  Printf.printf "building a social graph (2000 users, Facebook statistics)...\n%!";
  let graph = Workload.Scale.generate ~n_users:2000 ~seed:42 () in
  Printf.printf "  %d users, %d friendships, mean degree %.1f (max %d)\n%!"
    (Workload.Scale.n_users graph)
    (Workload.Scale.n_edges graph)
    (Workload.Scale.mean_degree graph)
    (Workload.Scale.max_degree graph);

  Printf.printf "partitioning across 7 regions (2..4 replicas per user)...\n%!";
  let part =
    Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:2 ~max_replicas:4 ~seed:43
  in
  Printf.printf "  friend-locality %.0f%%, mean replication %.1f\n%!"
    (100. *. Workload.Social_partition.locality part)
    (Workload.Social_partition.mean_replication part);

  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n 7) in
  let rmap = Workload.Social_partition.replica_map part in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  Printf.printf "planning the serializer tree (Algorithm 3)...\n%!";
  let config = Harness.Build.solve_config spec in
  Format.printf "  %a@." Saturn.Config.pp config;
  let api, _system =
    Harness.Build.saturn engine { spec with Harness.Build.saturn_config = Some config } metrics
  in

  Printf.printf "driving the Benevenuto op mix (100 active users per region, 1s)...\n%!";
  let ops = Workload.Social_ops.create part ~value_size:64 ~seed:44 in
  (* each region's active users, drawn uniformly from the users it masters *)
  let active =
    Harness.Scenario.active_users
      { Harness.Scenario.default_social_setup with social_clients_per_dc = 100; s_seed = 42 }
      graph part
  in
  let clients =
    List.concat
      (List.mapi
         (fun dc users ->
           List.map
             (fun u -> Harness.Client.create ~id:u ~home_site:dc_sites.(dc) ~preferred_dc:dc)
             users)
         (Array.to_list active))
  in
  let result =
    Harness.Driver.run engine api metrics ~clients
      ~next_op:(fun c -> Workload.Social_ops.next ops ~user:c.Harness.Client.id)
      ~warmup:(Sim.Time.of_ms 300) ~measure:(Sim.Time.of_sec 1.) ~cooldown:(Sim.Time.of_ms 200)
  in

  Printf.printf "\nresults:\n";
  Printf.printf "  throughput      %.0f ops/s (%d ops in the window)\n" result.Harness.Driver.throughput
    result.Harness.Driver.ops_completed;
  Printf.printf "  remote ops      %.1f%% of generated operations\n"
    (100. *. Workload.Social_ops.remote_fraction ops);
  let vis = Harness.Metrics.visibility metrics in
  let extra = Harness.Metrics.extra_visibility metrics in
  Printf.printf "  visibility      %.1f ms mean, %.1f ms p90 (optimal + %.1f ms)\n"
    (Stats.Sample.mean vis)
    (if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis 90.)
    (Stats.Sample.mean extra);
  let pair = Harness.Metrics.pair_visibility metrics ~origin:Sim.Ec2.i ~dest:Sim.Ec2.f in
  if not (Stats.Sample.is_empty pair) then
    Printf.printf "  Ireland->Frankfurt updates visible in %.1f ms (bulk path: 10 ms)\n"
      (Stats.Sample.mean pair)
