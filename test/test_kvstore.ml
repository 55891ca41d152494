(* Tests for the key-value substrate: values, stores, partitioning and the
   replica map. *)

let qtest = QCheck_alcotest.to_alcotest

let test_value () =
  let v = Kvstore.Value.make ~payload:7 ~size_bytes:128 in
  Alcotest.(check bool) "equal" true (Kvstore.Value.equal v v);
  Alcotest.(check bool) "not equal" false
    (Kvstore.Value.equal v (Kvstore.Value.make ~payload:8 ~size_bytes:128));
  Alcotest.check_raises "negative size" (Invalid_argument "Value.make: negative size") (fun () ->
      ignore (Kvstore.Value.make ~payload:0 ~size_bytes:(-1)))

let test_store_lww () =
  let s : (int, int) Kvstore.Store.t = Kvstore.Store.create () in
  let v n = Kvstore.Value.make ~payload:n ~size_bytes:1 in
  Alcotest.(check bool) "install on empty" true
    (Kvstore.Store.put_if_newer s ~cmp:Int.compare ~key:1 (v 1) 10);
  Alcotest.(check bool) "newer wins" true
    (Kvstore.Store.put_if_newer s ~cmp:Int.compare ~key:1 (v 2) 20);
  Alcotest.(check bool) "older rejected" false
    (Kvstore.Store.put_if_newer s ~cmp:Int.compare ~key:1 (v 3) 15);
  Alcotest.(check bool) "equal rejected" false
    (Kvstore.Store.put_if_newer s ~cmp:Int.compare ~key:1 (v 4) 20);
  (match Kvstore.Store.get s ~key:1 with
  | Some (value, 20) -> Alcotest.(check int) "latest payload" 2 value.Kvstore.Value.payload
  | Some _ | None -> Alcotest.fail "wrong version");
  Alcotest.(check int) "applied counter" 2 (Kvstore.Store.puts_applied s);
  Alcotest.(check int) "size" 1 (Kvstore.Store.size s);
  Alcotest.(check bool) "mem" true (Kvstore.Store.mem s ~key:1);
  Alcotest.(check bool) "not mem" false (Kvstore.Store.mem s ~key:2)

let prop_partitioning_in_range =
  QCheck.Test.make ~name:"partitioning stays in range and is deterministic" ~count:200
    QCheck.(pair (int_bound 10_000) (int_range 1 16))
    (fun (key, parts) ->
      let p = Kvstore.Partitioning.create ~partitions:parts in
      let r = Kvstore.Partitioning.responsible p ~key in
      r >= 0 && r < parts && r = Kvstore.Partitioning.responsible p ~key)

let test_partitioning_spreads () =
  let p = Kvstore.Partitioning.create ~partitions:4 in
  let counts = Array.make 4 0 in
  for key = 0 to 999 do
    let r = Kvstore.Partitioning.responsible p ~key in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iter
    (fun c -> if c < 150 || c > 350 then Alcotest.failf "unbalanced partitioning: %d" c)
    counts

let test_replica_map_basics () =
  let rm = Kvstore.Replica_map.create ~n_dcs:3 ~n_keys:6 ~assign:(fun k -> [ k mod 3; (k + 1) mod 3 ]) in
  Alcotest.(check (list int)) "replicas of 0" [ 0; 1 ] (Kvstore.Replica_map.replicas rm ~key:0);
  Alcotest.(check (list int)) "replicas of 2" [ 0; 2 ] (Kvstore.Replica_map.replicas rm ~key:2);
  Alcotest.(check bool) "replicates" true (Kvstore.Replica_map.replicates rm ~dc:1 ~key:0);
  Alcotest.(check bool) "not replicates" false (Kvstore.Replica_map.replicates rm ~dc:2 ~key:0);
  Alcotest.(check (float 1e-9)) "mean degree" 2. (Kvstore.Replica_map.mean_degree rm);
  Alcotest.(check int) "degree" 2 (Kvstore.Replica_map.degree rm ~key:4);
  (* keys 0,3 -> {0,1}; 1,4 -> {1,2}; 2,5 -> {2,0} => dc0 and dc1 share 0,3 *)
  Alcotest.(check int) "shared keys" 2 (Kvstore.Replica_map.shared_keys rm 0 1);
  Alcotest.(check (list int)) "local keys of dc0" [ 0; 2; 3; 5 ] (Kvstore.Replica_map.local_keys rm ~dc:0)

let test_replica_map_validation () =
  Alcotest.check_raises "empty replicas" (Invalid_argument "Replica_map.create: key with no replicas")
    (fun () -> ignore (Kvstore.Replica_map.create ~n_dcs:2 ~n_keys:1 ~assign:(fun _ -> [])));
  Alcotest.check_raises "dc out of range" (Invalid_argument "Replica_map.create: dc out of range")
    (fun () -> ignore (Kvstore.Replica_map.create ~n_dcs:2 ~n_keys:1 ~assign:(fun _ -> [ 5 ])))

let prop_replica_map_consistency =
  QCheck.Test.make ~name:"replicas(key) agrees with replicates(dc,key)" ~count:50
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, n_dcs) ->
      let rng = Sim.Rng.create ~seed in
      let n_keys = 40 in
      let rm =
        Kvstore.Replica_map.create ~n_dcs ~n_keys ~assign:(fun _ ->
            let deg = 1 + Sim.Rng.int rng n_dcs in
            List.init deg (fun _ -> Sim.Rng.int rng n_dcs))
      in
      let ok = ref true in
      for key = 0 to n_keys - 1 do
        let reps = Kvstore.Replica_map.replicas rm ~key in
        for dc = 0 to n_dcs - 1 do
          if Kvstore.Replica_map.replicates rm ~dc ~key <> List.mem dc reps then ok := false
        done;
        (* sorted and duplicate-free *)
        if List.sort_uniq Int.compare reps <> reps then ok := false;
        (* the indexed walk and the mask describe the same set *)
        let deg = Kvstore.Replica_map.degree rm ~key in
        if List.init deg (Kvstore.Replica_map.replica rm ~key) <> reps then ok := false;
        if Kvstore.Replica_map.mask rm ~key <> List.fold_left (fun m dc -> m lor (1 lsl dc)) 0 reps
        then ok := false
      done;
      !ok)

let test_replica_map_mask_limit () =
  let rm = Kvstore.Replica_map.full ~n_dcs:63 ~n_keys:1 in
  Alcotest.check_raises "63 datacenters" (Invalid_argument "Replica_map.mask: more than 62 datacenters")
    (fun () -> ignore (Kvstore.Replica_map.mask rm ~key:0));
  let rm = Kvstore.Replica_map.full ~n_dcs:62 ~n_keys:1 in
  Alcotest.(check int) "62 datacenters fit" ((1 lsl 62) - 1) (Kvstore.Replica_map.mask rm ~key:0)

(* keys with the same replica set share its array, so a map retains one
   word per key plus a bit per key and datacenter; an array per key would
   retain four words per key *)
let test_replica_map_sharing () =
  let n_dcs = 3 and n_keys = 100_000 in
  let rm =
    Kvstore.Replica_map.create ~n_dcs ~n_keys ~assign:(fun k -> [ k mod n_dcs; (k + 1) mod n_dcs ])
  in
  let words = Obj.reachable_words (Obj.repr rm) in
  let bitsets = n_dcs * ((n_keys / 64) + 2) in
  if words > n_keys + bitsets + 64 then
    Alcotest.failf "%d keys retain %d words, expected about %d" n_keys words (n_keys + bitsets);
  Alcotest.(check (list int)) "replicas of the last key" [ 0; 1 ]
    (Kvstore.Replica_map.replicas rm ~key:(n_keys - 1))

let test_replica_map_full () =
  let rm = Kvstore.Replica_map.full ~n_dcs:4 ~n_keys:10 in
  Alcotest.(check (float 1e-9)) "degree 4" 4. (Kvstore.Replica_map.mean_degree rm);
  Alcotest.(check int) "all shared" 10 (Kvstore.Replica_map.shared_keys rm 1 3)

let suite =
  [
    Alcotest.test_case "value" `Quick test_value;
    Alcotest.test_case "store last-writer-wins" `Quick test_store_lww;
    qtest prop_partitioning_in_range;
    Alcotest.test_case "partitioning balance" `Quick test_partitioning_spreads;
    Alcotest.test_case "replica map basics" `Quick test_replica_map_basics;
    Alcotest.test_case "replica mask limit" `Quick test_replica_map_mask_limit;
    Alcotest.test_case "replica map validation" `Quick test_replica_map_validation;
    qtest prop_replica_map_consistency;
    Alcotest.test_case "full replication map" `Quick test_replica_map_full;
    Alcotest.test_case "replica sets shared across keys" `Quick test_replica_map_sharing;
  ]
