(* Tests for the workload layer: replication patterns, the synthetic
   generator, the social graph, its partitioning and the op mix. *)

let qtest = QCheck_alcotest.to_alcotest
let dc_sites7 = Array.of_list (Sim.Ec2.first_n 7)

let test_keyspace_full () =
  let rng = Sim.Rng.create ~seed:1 in
  let rm = Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:70 Workload.Keyspace.Full in
  Alcotest.(check (float 1e-9)) "every key everywhere" 7. (Kvstore.Replica_map.mean_degree rm)

let test_keyspace_uniform_degree () =
  let rng = Sim.Rng.create ~seed:2 in
  let rm =
    Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:140
      (Workload.Keyspace.Uniform 3)
  in
  for key = 0 to 139 do
    Alcotest.(check int) "degree exactly 3" 3 (Kvstore.Replica_map.degree rm ~key);
    (* home always included *)
    Alcotest.(check bool) "home included" true
      (Kvstore.Replica_map.replicates rm ~dc:(key mod 7) ~key)
  done

let test_keyspace_distance_patterns () =
  let rng = Sim.Rng.create ~seed:3 in
  let exp_rm =
    Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:700
      Workload.Keyspace.Exponential
  in
  (* near pair (I,F @10ms) must share much more than a far pair (I,S @154ms) *)
  let near = Kvstore.Replica_map.shared_keys exp_rm Sim.Ec2.i Sim.Ec2.f in
  let far = Kvstore.Replica_map.shared_keys exp_rm Sim.Ec2.i Sim.Ec2.s in
  if near <= 2 * far then Alcotest.failf "exponential: near=%d should dwarf far=%d" near far;
  (* minimum degree 2 *)
  for key = 0 to 699 do
    if Kvstore.Replica_map.degree exp_rm ~key < 2 then Alcotest.failf "degree < 2 at key %d" key
  done

let test_keyspace_nearest_degree () =
  let rm = Workload.Keyspace.nearest_degree ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:70 ~degree:2 in
  Alcotest.(check (float 1e-9)) "degree 2" 2. (Kvstore.Replica_map.mean_degree rm);
  (* Ireland's nearest is Frankfurt: a key homed at I must replicate at F *)
  let key_at_i = Sim.Ec2.i in
  Alcotest.(check bool) "I's partner is F" true
    (Kvstore.Replica_map.replicates rm ~dc:Sim.Ec2.f ~key:key_at_i)

let test_synthetic_ratios () =
  let rng = Sim.Rng.create ~seed:4 in
  let rm = Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:140 Workload.Keyspace.Exponential in
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.n_keys = 140; value_size = 8; read_ratio = 0.8; remote_read_ratio = 0.25; seed = 5 }
      ~rmap:rm ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7
  in
  let reads = ref 0 and writes = ref 0 and remotes = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.Synthetic.next w ~dc:3 with
    | Workload.Op.Read _ -> incr reads
    | Workload.Op.Write { value; _ } ->
      incr writes;
      Alcotest.(check int) "value size" 8 value.Kvstore.Value.size_bytes
    | Workload.Op.Remote_read _ -> incr remotes
  done;
  let frac x = float_of_int !x /. 10_000. in
  if Float.abs (frac writes -. 0.2) > 0.02 then Alcotest.failf "write ratio off: %f" (frac writes);
  (* remote = 25%% of reads = 20%% of all ops *)
  if Float.abs (frac remotes -. 0.2) > 0.02 then Alcotest.failf "remote ratio off: %f" (frac remotes)

let prop_synthetic_ops_well_formed =
  QCheck.Test.make ~name:"synthetic ops target valid keys/dcs" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let rm =
        Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:70
          Workload.Keyspace.Exponential
      in
      let w =
        Workload.Synthetic.create
          { Workload.Synthetic.default with Workload.Synthetic.n_keys = 70; remote_read_ratio = 0.3; seed }
          ~rmap:rm ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7
      in
      let ok = ref true in
      for _ = 1 to 500 do
        let dc = Sim.Rng.int rng 7 in
        match Workload.Synthetic.next w ~dc with
        | Workload.Op.Read { key } | Workload.Op.Write { key; _ } ->
          if not (Kvstore.Replica_map.replicates rm ~dc ~key) then ok := false
        | Workload.Op.Remote_read { key; at } ->
          (* the target datacenter must hold the key *)
          if not (Kvstore.Replica_map.replicates rm ~dc:at ~key) then ok := false
      done;
      !ok)

(* ---- social graph ----------------------------------------------------------- *)

let graph = Workload.Social_graph.facebook_scaled ~n_users:1200 ~seed:11

let test_social_graph_stats () =
  Alcotest.(check int) "users" 1200 (Workload.Social_graph.n_users graph);
  let mean = Workload.Social_graph.mean_degree graph in
  if mean < 20. || mean > 40. then Alcotest.failf "mean degree should be ~30, got %.1f" mean;
  (* heavy tail: the max degree should far exceed the mean *)
  let mx = Workload.Social_graph.max_degree graph in
  if float_of_int mx < 3. *. mean then Alcotest.failf "no heavy tail: max %d vs mean %.1f" mx mean

let test_social_graph_symmetry () =
  for u = 0 to Workload.Social_graph.n_users graph - 1 do
    Array.iter
      (fun v ->
        if not (Array.exists (fun w -> w = u) (Workload.Social_graph.friends graph v)) then
          Alcotest.failf "asymmetric edge %d-%d" u v;
        if v = u then Alcotest.failf "self loop at %d" u)
      (Workload.Social_graph.friends graph u)
  done

let test_social_graph_deterministic () =
  let g2 = Workload.Social_graph.facebook_scaled ~n_users:1200 ~seed:11 in
  Alcotest.(check int) "same edge count" (Workload.Social_graph.n_edges graph)
    (Workload.Social_graph.n_edges g2)

(* ---- social partition ------------------------------------------------------- *)

let part = Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:2 ~max_replicas:4 ~seed:12

let test_partition_replica_bounds () =
  let rm = Workload.Social_partition.replica_map part in
  Alcotest.(check int) "two keys per user" (2 * 1200) (Kvstore.Replica_map.n_keys rm);
  for u = 0 to 1199 do
    let wall = Workload.Social_partition.wall_key part ~user:u in
    let d = Kvstore.Replica_map.degree rm ~key:wall in
    if d < 2 || d > 4 then Alcotest.failf "user %d replicas out of bounds: %d" u d;
    (* the master always holds its user's data *)
    Alcotest.(check bool) "master holds wall" true
      (Kvstore.Replica_map.replicates rm ~dc:(Workload.Social_partition.master part ~user:u) ~key:wall);
    (* wall and albums share a replica set *)
    let album = Workload.Social_partition.album_key part ~user:u in
    Alcotest.(check (list int)) "wall/albums colocated"
      (Kvstore.Replica_map.replicas rm ~key:wall)
      (Kvstore.Replica_map.replicas rm ~key:album)
  done

let test_partition_locality () =
  let loc = Workload.Social_partition.locality part in
  (* the community-aware placement must beat random assignment (1/7 ≈ 0.14) *)
  if loc < 0.3 then Alcotest.failf "partitioner locality too low: %.2f" loc

let test_partition_more_replicas_more_coverage () =
  let tight = Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:2 ~max_replicas:2 ~seed:12 in
  let wide = Workload.Social_partition.partition graph ~n_dcs:7 ~min_replicas:2 ~max_replicas:6 ~seed:12 in
  let mr p = Workload.Social_partition.mean_replication p in
  if mr wide <= mr tight then
    Alcotest.failf "max_replicas should raise replication: %.2f vs %.2f" (mr wide) (mr tight)

(* ---- social ops -------------------------------------------------------------- *)

let test_social_ops_mix_sums () =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. Workload.Social_ops.mix in
  Alcotest.(check (float 1e-9)) "mix sums to 1" 1.0 total

(* kind_of_draw must pick exactly what a walk down [mix] picks: the list
   walk below is the pre-table definition, summed in the same order *)
let walk_mix x =
  let rec walk acc = function
    | [] -> Workload.Social_ops.Upload_album
    | (k, p) :: rest -> if x < acc +. p then k else walk (acc +. p) rest
  in
  walk 0. Workload.Social_ops.mix

let prop_kind_of_draw_matches_walk =
  QCheck.Test.make ~name:"kind_of_draw matches the mix walk" ~count:2000
    (QCheck.float_range 0. 1.)
    (fun x -> Workload.Social_ops.kind_of_draw x = walk_mix x)

let test_kind_of_draw_thresholds () =
  (* at and either side of every running share, where an off-by-one would show *)
  let acc = ref 0. in
  List.iter
    (fun (_, p) ->
      acc := !acc +. p;
      List.iter
        (fun x ->
          if Workload.Social_ops.kind_of_draw x <> walk_mix x then
            Alcotest.failf "kind_of_draw %h disagrees with the walk" x)
        [ !acc; Float.pred !acc; Float.succ !acc ])
    Workload.Social_ops.mix;
  let zero = Workload.Social_ops.kind_of_draw 0. in
  if zero <> Workload.Social_ops.Browse_friend_wall then Alcotest.fail "draw 0 is not the first kind"

let test_social_ops_shape () =
  let ops = Workload.Social_ops.create part ~value_size:64 ~seed:13 in
  let rm = Workload.Social_partition.replica_map part in
  let reads = ref 0 and writes = ref 0 and remotes = ref 0 in
  let rng = Sim.Rng.create ~seed:14 in
  for _ = 1 to 5_000 do
    let user = Sim.Rng.int rng 1200 in
    let dc = Workload.Social_partition.master part ~user in
    match Workload.Social_ops.next ops ~user with
    | Workload.Op.Read { key } ->
      incr reads;
      if not (Kvstore.Replica_map.replicates rm ~dc ~key) then
        Alcotest.fail "local read of non-replicated key"
    | Workload.Op.Write { key; _ } ->
      incr writes;
      if not (Kvstore.Replica_map.replicates rm ~dc ~key) then
        Alcotest.fail "write to non-replicated key"
    | Workload.Op.Remote_read { key; at } ->
      incr remotes;
      if not (Kvstore.Replica_map.replicates rm ~dc:at ~key) then
        Alcotest.fail "remote read target lacks the key"
  done;
  let w = float_of_int !writes /. 5_000. in
  (* browsing-dominated: ~10% writes *)
  if w < 0.05 || w > 0.18 then Alcotest.failf "write fraction off: %.2f" w;
  if !remotes = 0 then Alcotest.fail "no remote reads generated under partial replication"

(* ---- trace record/replay ------------------------------------------------------ *)

let test_trace_roundtrip () =
  let ops =
    [
      (0, Workload.Op.Read { key = 3 });
      (0, Workload.Op.Write { key = 4; value = Kvstore.Value.make ~payload:9 ~size_bytes:64 });
      (1, Workload.Op.Remote_read { key = 5; at = 2 });
      (0, Workload.Op.Read { key = 6 });
    ]
  in
  let t = Workload.Trace.of_ops ops in
  Alcotest.(check int) "remaining" 4 (Workload.Trace.remaining t);
  let s = Workload.Trace.to_string t in
  let t2 = Workload.Trace.of_string s in
  (* per-client order preserved across the round trip *)
  (match Workload.Trace.next t2 ~client:0 with
  | Some (Workload.Op.Read { key = 3 }) -> ()
  | _ -> Alcotest.fail "client 0 first op");
  (match Workload.Trace.next t2 ~client:0 with
  | Some (Workload.Op.Write { key = 4; value }) ->
    Alcotest.(check int) "size survives" 64 value.Kvstore.Value.size_bytes
  | _ -> Alcotest.fail "client 0 second op");
  (match Workload.Trace.next t2 ~client:1 with
  | Some (Workload.Op.Remote_read { key = 5; at = 2 }) -> ()
  | _ -> Alcotest.fail "client 1 op");
  (match Workload.Trace.next t2 ~client:0 with
  | Some (Workload.Op.Read { key = 6 }) -> ()
  | _ -> Alcotest.fail "client 0 third op");
  Alcotest.(check (option (of_pp Workload.Op.pp))) "exhausted" None
    (Workload.Trace.next t2 ~client:0);
  Alcotest.(check (option (of_pp Workload.Op.pp))) "unknown client" None
    (Workload.Trace.next t2 ~client:7)

let test_trace_parse_errors_and_comments () =
  let t = Workload.Trace.of_string "# header\n\nR 1 2\n" in
  Alcotest.(check int) "comments skipped" 1 (Workload.Trace.remaining t);
  (match Workload.Trace.of_string "BOGUS 1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed line must raise")

let test_trace_record_from_generator () =
  let rng = Sim.Rng.create ~seed:9 in
  let rm = Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7 ~n_keys:70 Workload.Keyspace.Exponential in
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys = 70 }
      ~rmap:rm ~topo:Sim.Ec2.topology ~dc_sites:dc_sites7
  in
  let t =
    Workload.Trace.record ~clients:[ 0; 1; 2 ]
      ~next:(fun ~client -> Workload.Synthetic.next w ~dc:(client mod 7))
      ~ops_per_client:25
  in
  Alcotest.(check int) "75 ops recorded" 75 (Workload.Trace.remaining t);
  (* replay through a tiny saturn run: every op must be consumable *)
  let consumed = ref 0 in
  let rec drain client =
    match Workload.Trace.next t ~client with
    | Some _ ->
      incr consumed;
      drain client
    | None -> ()
  in
  List.iter drain [ 0; 1; 2 ];
  Alcotest.(check int) "all consumable" 75 !consumed

let suite =
  [
    Alcotest.test_case "full pattern" `Quick test_keyspace_full;
    Alcotest.test_case "uniform degree pattern" `Quick test_keyspace_uniform_degree;
    Alcotest.test_case "distance-based correlation patterns" `Quick test_keyspace_distance_patterns;
    Alcotest.test_case "nearest-degree pattern (Fig 1b)" `Quick test_keyspace_nearest_degree;
    Alcotest.test_case "synthetic generator ratios" `Quick test_synthetic_ratios;
    qtest prop_synthetic_ops_well_formed;
    Alcotest.test_case "social graph statistics" `Quick test_social_graph_stats;
    Alcotest.test_case "social graph symmetry" `Quick test_social_graph_symmetry;
    Alcotest.test_case "social graph determinism" `Quick test_social_graph_deterministic;
    Alcotest.test_case "partition replica bounds" `Quick test_partition_replica_bounds;
    Alcotest.test_case "partition locality" `Quick test_partition_locality;
    Alcotest.test_case "partition replication knob" `Quick test_partition_more_replicas_more_coverage;
    Alcotest.test_case "social op mix sums to 1" `Quick test_social_ops_mix_sums;
    qtest prop_kind_of_draw_matches_walk;
    Alcotest.test_case "kind_of_draw at the mix thresholds" `Quick test_kind_of_draw_thresholds;
    Alcotest.test_case "social ops shape" `Quick test_social_ops_shape;
    Alcotest.test_case "trace round trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace comments and errors" `Quick test_trace_parse_errors_and_comments;
    Alcotest.test_case "trace recording" `Quick test_trace_record_from_generator;
  ]
