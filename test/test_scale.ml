(* The million-user scale tier: streaming graph generation, arithmetic
   placement, and the engine perf-regression gate. *)

let qtest = QCheck_alcotest.to_alcotest

module Scale = Workload.Scale
module EB = Harness.Engine_bench

(* the same window as Engine_bench's: empty the minor heap, then read
   Gc.counters (), whose major count includes words not yet flushed by a
   major slice (quick_stat's does not) *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- generator ------------------------------------------------------------ *)

let test_determinism () =
  let a = Scale.generate ~n_users:20_000 ~seed:7 () in
  let b = Scale.generate ~n_users:20_000 ~seed:7 () in
  Alcotest.(check string) "same seed, same digest" (Scale.digest a) (Scale.digest b);
  Alcotest.(check int) "same edge count" (Scale.n_edges a) (Scale.n_edges b);
  let c = Scale.generate ~n_users:20_000 ~seed:8 () in
  if String.equal (Scale.digest a) (Scale.digest c) then
    Alcotest.fail "different seeds produced identical edge streams"

(* the 61k tier is the real New Orleans network's size; its generated shape
   must carry the New Orleans statistics — mean degree 30, a heavy tail,
   and no isolated users *)
let tier_61k = lazy (Scale.of_tier Scale.T61k ~seed:42)

let test_tier_shape () =
  let g = Lazy.force tier_61k in
  Alcotest.(check int) "users" 61_096 (Scale.n_users g);
  let mean = Scale.mean_degree g in
  if Float.abs (mean -. 30.) > 1. then Alcotest.failf "mean degree %.2f, expected ~30" mean;
  let dmax = Scale.max_degree g in
  if dmax < 10 * int_of_float mean then
    Alcotest.failf "max degree %d: no heavy tail over mean %.1f" dmax mean;
  for u = 0 to Scale.n_users g - 1 do
    if Scale.degree g u = 0 then Alcotest.failf "user %d is isolated" u
  done;
  (* CSR rows are sorted ascending *)
  let prev = ref (-1) in
  Scale.iter_friends g 0 (fun v ->
      if v <= !prev then Alcotest.failf "row 0 not sorted: %d after %d" v !prev;
      prev := v)

(* the absolute digest and adjacency at the 61k tier and seed 42: a
   rewrite of the generator (or of Sim.Rng underneath it) must replay the
   graph bit for bit, not just agree with itself *)
let test_pinned_digest () =
  let g = Lazy.force tier_61k in
  Alcotest.(check string) "digest" "4430a691bc2b66e0" (Scale.digest g);
  Alcotest.(check int) "edges" 916_320 (Scale.n_edges g);
  (* the digest covers the edge stream; this fingerprint covers the CSR
     rows built from it, in row order *)
  let h = ref 0 in
  for u = 0 to Scale.n_users g - 1 do
    Scale.iter_friends g u (fun v -> h := ((!h * 31) + v) land 0xffff_ffff_ffff)
  done;
  Alcotest.(check int) "adjacency fingerprint" 0x915b319562e !h

(* §7.4's partitioner at the real network's size: every user's replica
   set honours the bounds and every master is a datacenter *)
let test_tier_partition () =
  let part =
    Workload.Social_partition.partition (Lazy.force tier_61k) ~n_dcs:7 ~min_replicas:2
      ~max_replicas:5 ~seed:43
  in
  let rm = Workload.Social_partition.replica_map part in
  for user = 0 to 61_095 do
    let m = Workload.Social_partition.master part ~user in
    if m < 0 || m >= 7 then Alcotest.failf "user %d: master %d" user m;
    let d = Kvstore.Replica_map.degree rm ~key:(Workload.Social_partition.wall_key part ~user) in
    if d < 2 || d > 5 then Alcotest.failf "user %d: %d replicas" user d
  done

(* every CSR row is ascending and loop-free, row lengths are the degrees
   and add up to both ends of every edge, and u lists v exactly as often
   as v lists u *)
let prop_csr_rows =
  QCheck.Test.make ~name:"CSR rows ascending and symmetric" ~count:30
    QCheck.(
      pair
        (quad (int_range 2 3_000) small_nat (int_range 2 40) (option (int_range 1 40)))
        (float_range 0. 1.))
    (fun ((n_users, seed, mean_degree, communities), locality) ->
      let g = Scale.generate ~n_users ~mean_degree ~locality ?communities ~seed () in
      let mult = Hashtbl.create 1024 in
      let total = ref 0 in
      for u = 0 to n_users - 1 do
        let prev = ref (-1) and len = ref 0 in
        Scale.iter_friends g u (fun v ->
            if v < !prev then QCheck.Test.fail_reportf "row %d: %d after %d" u v !prev;
            if v < 0 || v >= n_users then QCheck.Test.fail_reportf "row %d: neighbor %d" u v;
            if v = u then QCheck.Test.fail_reportf "row %d: self loop" u;
            prev := v;
            incr len;
            Hashtbl.replace mult (u, v) (1 + Option.value ~default:0 (Hashtbl.find_opt mult (u, v))));
        if !len <> Scale.degree g u then QCheck.Test.fail_reportf "row %d: length vs degree" u;
        total := !total + !len
      done;
      if !total <> 2 * Scale.n_edges g then
        QCheck.Test.fail_reportf "%d row entries for %d edges" !total (Scale.n_edges g);
      Hashtbl.iter
        (fun (u, v) c ->
          let c' = Option.value ~default:0 (Hashtbl.find_opt mult (v, u)) in
          if c <> c' then QCheck.Test.fail_reportf "%d lists %d %d times, reverse %d" u v c c')
        mult;
      true)

(* generation memory is O(edges): words allocated per edge must not grow
   with the user count (a per-pick copy of the endpoint pool would blow
   this bound immediately). The 32-bit id buffers and the 16-bit community
   pools cost 2.8-3.3 words per edge over this range; 3.4 leaves room for
   pool regrowth but not for a per-draw or per-edge box, nor for 32-bit
   pools (3.3-4.4) *)
let prop_generation_linear =
  QCheck.Test.make ~name:"generation allocates O(1) words per edge" ~count:5
    QCheck.(int_range 2_000 20_000)
    (fun n_users ->
      let w0 = words () in
      let g = Scale.generate ~n_users ~seed:(n_users land 0xff) () in
      let per_edge = (words () -. w0) /. float_of_int (Scale.n_edges g) in
      if per_edge > 3.4 then
        QCheck.Test.fail_reportf "%.2f words/edge at %d users" per_edge n_users;
      true)

(* the 16-bit pools, the offsets-as-cursor scatter and the shortcut
   digest replay the 32-bit generator bit for bit: same edge stream, same
   CSR rows, whatever the parameters *)
let prop_matches_reference =
  QCheck.Test.make ~name:"generator matches the 32-bit-pool reference" ~count:30
    QCheck.(
      pair
        (quad (int_range 2 3_000) small_nat (int_range 2 40) (option (int_range 1 40)))
        (float_range 0. 1.))
    (fun ((n_users, seed, mean_degree, communities), locality) ->
      let g = Scale.generate ~n_users ~mean_degree ~locality ?communities ~seed () in
      let r = Scale_reference.generate ~n_users ~mean_degree ~locality ?communities ~seed () in
      if Scale.digest g <> Scale_reference.digest r then
        QCheck.Test.fail_reportf "digest %s, reference %s" (Scale.digest g)
          (Scale_reference.digest r);
      let row f u =
        let l = ref [] in
        f u (fun v -> l := v :: !l);
        !l
      in
      for u = 0 to n_users - 1 do
        if row (Scale.iter_friends g) u <> row (Scale_reference.iter_friends r) u then
          QCheck.Test.fail_reportf "row %d differs from the reference" u
      done;
      true)

(* the digest folds an id's four high bytes, all zero below 2^31, as one
   multiply by prime^4: it must equal the byte-serial fold *)
let prop_fnv_shortcut =
  QCheck.Test.make ~name:"digest fold equals the byte-serial FNV-1a" ~count:200
    QCheck.(list (int_range 0 (Int32.to_int Int32.max_int)))
    (fun l ->
      let l = (0 :: l) @ [ Int32.to_int Int32.max_int ] in
      let b = Bytes.create (4 * List.length l) in
      List.iteri (fun i x -> Bytes.set_int32_ne b (4 * i) (Int32.of_int x)) l;
      let n = List.length l in
      Scale.fnv_ids b n = Scale_reference.fnv_ids b n)

(* a finished graph retains its offsets (a word per user) and its
   adjacency (two 32-bit ids per edge, one word): about 1.07 words per
   edge at mean degree 30. An int-array adjacency would read 2.07 *)
let test_graph_retention () =
  let g = Lazy.force tier_61k in
  let per_edge = float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int (Scale.n_edges g) in
  if per_edge > 1.2 then Alcotest.failf "graph retains %.3f words/edge" per_edge

(* reading the finished graph allocates nothing: an id boxed as an Int32
   on the way out of the adjacency would show here *)
let test_reads_allocate_nothing () =
  let g = Lazy.force tier_61k in
  let rng = Sim.Rng.create ~seed:3 in
  let n = Scale.n_users g in
  let sum = ref 0 in
  let add v = sum := !sum + v in
  let w0 = Gc.minor_words () in
  for u = 0 to n - 1 do
    sum := !sum + Scale.friend g rng u;
    Scale.iter_friends g u add
  done;
  let w = Gc.minor_words () -. w0 in
  if !sum < 0 then Alcotest.fail "ids are non-negative";
  Alcotest.(check (float 0.)) "words allocated by friend and iter_friends" 0. w

let test_id_bound () =
  Alcotest.check_raises "2^31 users"
    (Invalid_argument "Scale.generate: n_users exceeds the 32-bit id range") (fun () ->
      ignore (Scale.generate ~n_users:(1 lsl 31) ~seed:1 () : Scale.t))

(* a pool stores a member's index within its community in 16 bits, so
   one community holds at most 65,536 users; at the limit the top index
   still decodes to the reference's graph *)
let test_member_bound () =
  Alcotest.check_raises "65,537 users in one community"
    (Invalid_argument "Scale.generate: a community exceeds 65536 members") (fun () ->
      ignore (Scale.generate ~n_users:65_537 ~mean_degree:2 ~communities:1 ~seed:1 () : Scale.t));
  let g = Scale.generate ~n_users:65_536 ~mean_degree:2 ~communities:1 ~seed:1 () in
  let r = Scale_reference.generate ~n_users:65_536 ~mean_degree:2 ~communities:1 ~seed:1 () in
  Alcotest.(check string) "65,536 users, reference digest" (Scale_reference.digest r)
    (Scale.digest g)

(* streaming ops out of a finished graph allocates O(1) per op — no hidden
   per-op pool rebuild, whatever the graph size. An op costs about 4.5
   words (the returned Op.t, its value, one boxed float draw); the bound
   is 1.5x that *)
let prop_stream_constant_alloc =
  QCheck.Test.make ~name:"op stream allocates O(1) words per op" ~count:4
    QCheck.(int_range 3_000 30_000)
    (fun n_users ->
      let g = Scale.generate ~n_users ~seed:5 () in
      let ops = Scale.Ops.create g ~n_dcs:3 ~value_size:128 ~seed:11 in
      let budget = 20_000 in
      let w0 = words () in
      for i = 0 to budget - 1 do
        ignore (Scale.Ops.next ops ~dc:(i mod 3) : Workload.Op.t)
      done;
      let per_op = (words () -. w0) /. float_of_int budget in
      if per_op > 7. then QCheck.Test.fail_reportf "%.1f words/op at %d users" per_op n_users;
      true)

(* ---- placement ------------------------------------------------------------ *)

let test_ops_well_formed () =
  let n_dcs = 3 in
  let g = Scale.generate ~n_users:10_000 ~seed:3 () in
  let ops = Scale.Ops.create g ~n_dcs ~value_size:64 ~seed:13 in
  let n_keys = Scale.Ops.n_keys g in
  for i = 0 to 20_000 - 1 do
    let dc = i mod n_dcs in
    match Scale.Ops.next ops ~dc with
    | Workload.Op.Read { key } ->
      if key < 0 || key >= n_keys then Alcotest.failf "read key %d out of range" key;
      (* local reads must actually be replicated here *)
      if not (List.mem dc (Scale.Ops.replicas g ~n_dcs ~key)) then
        Alcotest.failf "local read of key %d not replicated at dc%d" key dc
    | Workload.Op.Write { key; _ } ->
      (* writes always land on data mastered at the issuing datacenter *)
      let master = List.hd (Scale.Ops.replicas g ~n_dcs ~key) in
      if master <> dc then Alcotest.failf "write to key %d mastered at dc%d from dc%d" key master dc
    | Workload.Op.Remote_read { key; at } ->
      if List.mem dc (Scale.Ops.replicas g ~n_dcs ~key) then
        Alcotest.failf "remote read of key %d, but it is replicated at dc%d" key dc;
      if at <> List.hd (Scale.Ops.replicas g ~n_dcs ~key) then
        Alcotest.failf "remote read of key %d targets dc%d, not its master" key at
  done;
  Alcotest.(check int) "ops counted" 20_000 (Scale.Ops.ops_issued ops);
  let rf = Scale.Ops.remote_fraction ops in
  if rf <= 0. || rf > 0.3 then Alcotest.failf "remote fraction %.3f out of plausible band" rf

let test_replicas_consistent () =
  let g = Scale.generate ~n_users:5_000 ~seed:9 () in
  let n_dcs = 3 in
  for key = 0 to Scale.Ops.n_keys g - 1 do
    let reps = Scale.Ops.replicas g ~n_dcs ~key in
    (match reps with
    | [ m; s ] ->
      if s <> (m + 1) mod n_dcs then Alcotest.failf "key %d: replicas %d,%d not adjacent" key m s
    | _ -> Alcotest.failf "key %d: expected 2 replicas" key);
    List.iter
      (fun dc ->
        if not (List.mem dc reps) && List.length reps = n_dcs then
          Alcotest.failf "key %d claims full replication" key)
      [ 0; 1; 2 ]
  done

(* ---- the bench-check gate -------------------------------------------------- *)

(* a miniature saturn-bench-engine/1 document; [det] and [wall] splice in *)
let doc ?(schema = "saturn-bench-engine/1") ?(seed = 42) ~det ~wall () =
  Printf.sprintf "{\"schema\":%S,\"seed\":%d,\"tiers\":[{\"tier\":\"61k\",\"users\":61096,\"det\":{%s},\"wall\":{%s}}]}"
    schema seed det wall

let base_det = "\"edges\":916320,\"sim_ops\":3039,\"sim_words_per_op\":399.45"
let base_wall = "\"sim_events_per_s\":1515127"
let baseline = doc ~det:base_det ~wall:base_wall ()

let check_ok name r =
  (match r.EB.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "%s: unexpected failure: %s" name f)

let check_fails name r =
  if r.EB.failures = [] then Alcotest.failf "%s: expected a gate failure" name

let test_gate_identical () =
  check_ok "identical" (EB.check ~baseline ~fresh:baseline ~tolerance:0.02)

let test_gate_regression_fails () =
  (* an injected deterministic regression: words/op up 25% — the exact
     shape of an accidental per-event allocation creeping back in *)
  let fresh =
    doc ~det:"\"edges\":916320,\"sim_ops\":3039,\"sim_words_per_op\":499.31" ~wall:base_wall ()
  in
  check_fails "words/op +25%" (EB.check ~baseline ~fresh ~tolerance:0.02);
  (* event-count drift beyond tolerance fails too *)
  let fresh2 =
    doc ~det:"\"edges\":916320,\"sim_ops\":2500,\"sim_words_per_op\":399.45" ~wall:base_wall ()
  in
  check_fails "sim_ops -18%" (EB.check ~baseline ~fresh:fresh2 ~tolerance:0.02)

let test_gate_within_tolerance () =
  let fresh =
    doc ~det:"\"edges\":916320,\"sim_ops\":3039,\"sim_words_per_op\":403.00" ~wall:base_wall ()
  in
  check_ok "words/op +0.9%" (EB.check ~baseline ~fresh ~tolerance:0.02)

let test_gate_wall_advisory () =
  (* a 10x wall-clock swing (a slow CI runner) must not fail the gate,
     only produce a note *)
  let fresh = doc ~det:base_det ~wall:"\"sim_events_per_s\":151512" () in
  let r = EB.check ~baseline ~fresh ~tolerance:0.02 in
  check_ok "wall 10x slower" r;
  if r.EB.notes = [] then Alcotest.fail "expected an advisory note for the wall delta"

let test_gate_shape_drift () =
  (* missing tier *)
  let fresh = Printf.sprintf "{\"schema\":\"saturn-bench-engine/1\",\"seed\":42,\"tiers\":[]}" in
  check_fails "missing tier" (EB.check ~baseline ~fresh ~tolerance:0.02);
  (* a new deterministic field the baseline has never seen: regenerate *)
  let fresh =
    doc ~det:(base_det ^ ",\"sim_allocs\":12") ~wall:base_wall ()
  in
  check_fails "new det field" (EB.check ~baseline ~fresh ~tolerance:0.02);
  (* schema or seed mismatch: not comparable *)
  check_fails "schema" (EB.check ~baseline ~fresh:(doc ~schema:"saturn-bench-engine/2" ~det:base_det ~wall:base_wall ()) ~tolerance:0.02);
  check_fails "seed" (EB.check ~baseline ~fresh:(doc ~seed:43 ~det:base_det ~wall:base_wall ()) ~tolerance:0.02)

let test_gate_roundtrip () =
  (* a real (sub-tier) bench result must round-trip through to_json and
     pass the gate against itself with zero tolerance *)
  let r = EB.run_tier ~stream_ops:5_000 ~seed:42 Scale.T61k in
  Alcotest.(check int) "edges" 916_320 r.EB.edges;
  if r.EB.sim_ops <= 0 then Alcotest.fail "simulation completed no ops";
  let j = EB.to_json ~seed:42 [ r ] in
  check_ok "self" (EB.check ~baseline:j ~fresh:j ~tolerance:0.0)

let test_json_parser () =
  let j = EB.Json.parse "{\"a\":[1,2.5,-3e2],\"b\":\"x\\\"y\",\"c\":true,\"d\":null}" in
  (match EB.Json.member "a" j with
  | Some (EB.Json.Arr [ EB.Json.Num 1.; EB.Json.Num 2.5; EB.Json.Num -300. ]) -> ()
  | _ -> Alcotest.fail "array of numbers");
  (match EB.Json.member "b" j with
  | Some (EB.Json.Str "x\"y") -> ()
  | _ -> Alcotest.fail "escaped string");
  (match EB.Json.parse "  [ ]  " with EB.Json.Arr [] -> () | _ -> Alcotest.fail "empty array");
  Alcotest.check_raises "trailing garbage" (Failure "json: trailing garbage at offset 2") (fun () ->
      ignore (EB.Json.parse "{}x"))

let suite =
  [
    Alcotest.test_case "fixed-seed determinism digest" `Quick test_determinism;
    Alcotest.test_case "61k tier reference shape" `Quick test_tier_shape;
    Alcotest.test_case "61k seed-42 digest pinned" `Quick test_pinned_digest;
    Alcotest.test_case "61k partition within replica bounds" `Quick test_tier_partition;
    qtest prop_csr_rows;
    qtest prop_generation_linear;
    qtest prop_matches_reference;
    qtest prop_fnv_shortcut;
    Alcotest.test_case "finished graph retains ~1 word per edge" `Quick test_graph_retention;
    Alcotest.test_case "friend and iter_friends allocate nothing" `Quick test_reads_allocate_nothing;
    Alcotest.test_case "user count bounded by 32-bit ids" `Quick test_id_bound;
    Alcotest.test_case "community size bounded by 16-bit pools" `Quick test_member_bound;
    qtest prop_stream_constant_alloc;
    Alcotest.test_case "op stream well-formedness" `Quick test_ops_well_formed;
    Alcotest.test_case "replica sets are master+next" `Quick test_replicas_consistent;
    Alcotest.test_case "gate: identical runs pass" `Quick test_gate_identical;
    Alcotest.test_case "gate: injected regression fails" `Quick test_gate_regression_fails;
    Alcotest.test_case "gate: small drift within tolerance" `Quick test_gate_within_tolerance;
    Alcotest.test_case "gate: wall-clock is advisory" `Quick test_gate_wall_advisory;
    Alcotest.test_case "gate: shape drift fails" `Quick test_gate_shape_drift;
    Alcotest.test_case "gate: real run round-trips" `Quick test_gate_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
  ]
