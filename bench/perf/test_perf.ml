(* The benchmark's own tests: the workloads run through the same functions
   perf.exe uses, at a shortened simulated horizon, and must emit every
   metric BENCHMARK.json declares, with its unit; the compare gate's
   verdicts; the quartile arithmetic (Python's statistics.quantiles); the
   reference scaling of host times. *)

open Perfbench
module Json = Harness.Engine_bench.Json

let spec = Catalogue.gate (Report.read_spec "../../BENCHMARK.json")
let bound name = List.find (fun b -> b.Report.bname = name) spec.Report.end_to_end

let short =
  { Workloads.warmup = Sim.Time.of_ms 100; measure = Sim.Time.of_ms 300; cooldown = Sim.Time.of_ms 50 }

(* one untraced sweep, one spans pass, one counted pass, in this process *)
let traced w =
  let t0 = Hostspan.now_ns () in
  let p = w.Workloads.prepare ~seed:42 None in
  let plain_staged = p.Workloads.stage Workloads.Plain in
  let setup_s = Hostspan.seconds_since t0 in
  let plain = plain_staged.Workloads.run () in
  let tr = Hostspan.create () in
  let spans = (p.Workloads.stage (Workloads.Spans tr)).Workloads.run () in
  let counted = (p.Workloads.stage Workloads.Counted).Workloads.run () in
  let e2e =
    Catalogue.end_to_end_metrics
      [ { Catalogue.setup_s; setup_ref_s = Calib.reference_s (); rss_mb = 1.; sweep = plain } ]
  in
  let layers =
    Catalogue.layer_metrics ~setup_layers:p.Workloads.setup_layers ~build_s:plain_staged.Workloads.build_s
      ~top_heap_mb:1. ~plain ~spans ~counted
  in
  (e2e, layers, [ plain; spans; counted ], tr)

let assert_declared ~what declared (emitted : Report.metric list) =
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Report.metric) -> m.Report.name = name) emitted with
      | None -> Alcotest.failf "%s: %s declared but not emitted" what name
      | Some m -> Alcotest.(check string) (what ^ ": unit of " ^ name) unit_ m.Report.unit_)
    declared

let assert_workload w () =
  let e2e, layers, sweeps, _ = traced w in
  assert_declared ~what:"end-to-end"
    (List.map (fun b -> (b.Report.bname, b.Report.bunit)) spec.Report.end_to_end)
    e2e;
  assert_declared ~what:"per-layer" spec.Report.per_layer layers;
  Alcotest.(check (list string)) "checks pass" [] (Catalogue.check_sweeps sweeps);
  Alcotest.(check (list string)) "every layer value is declared" [] (List.concat_map Catalogue.undeclared sweeps);
  List.iter
    (fun (s : Workloads.sweep) ->
      let sum = Array.fold_left ( +. ) 0. s.Workloads.slices in
      if Array.length s.Workloads.slices < 2 || sum > s.Workloads.wall_s then
        Alcotest.failf "%d slices summing to %g s in a %g s phase" (Array.length s.Workloads.slices) sum
          s.Workloads.wall_s;
      Alcotest.(check int) "a reference per slice" (Array.length s.Workloads.slices)
        (Array.length s.Workloads.slice_refs))
    sweeps;
  (* a machine twice as slow doubles every slice and every reference; the
     scaled wall time does not move *)
  let plain = List.hd sweeps in
  let twice = Array.map (fun x -> 2. *. x) in
  let slow =
    { plain with Workloads.slices = twice plain.Workloads.slices; slice_refs = twice plain.Workloads.slice_refs }
  in
  let sample sweep = { Catalogue.setup_s = 1.; setup_ref_s = Calib.nominal_s; rss_mb = 1.; sweep } in
  Alcotest.(check (float 1e-9)) "scaling cancels a slower machine"
    (Catalogue.scaled_wall_s [ sample plain ])
    (Catalogue.scaled_wall_s [ sample slow ]);
  List.iter
    (fun (m : Report.metric) ->
      if m.Report.value <= 0. then Alcotest.failf "end-to-end %s reads %g" m.Report.name m.Report.value)
    e2e

let ec2 () = assert_workload (Workloads.ec2_7dc ~horizon:short ()) ()
let scale () = assert_workload (Workloads.scale ~tier:Workload.Scale.T61k ~horizon:short ()) ()

(* untraced and spans passes only: the counted pass re-runs all eight
   systems under a probe, which the other workloads already cover *)
let shootout () =
  let w = Workloads.shootout_8 ~baseline:"../../BENCH_shootout.json" () in
  let p = w.Workloads.prepare ~seed:42 None in
  let plain = (p.Workloads.stage Workloads.Plain).Workloads.run () in
  let tr = Hostspan.create () in
  let spans = (p.Workloads.stage (Workloads.Spans tr)).Workloads.run () in
  Alcotest.(check (list string)) "checks pass, BENCH_shootout.json matches" []
    (Catalogue.check_sweeps [ plain; spans ]);
  Alcotest.(check int) "a slice per system" 8 (Array.length plain.Workloads.slices);
  List.iter
    (fun system -> Alcotest.(check int) ("row span " ^ system) 1 (Hostspan.calls tr ("row." ^ system)))
    Harness.Shootout.systems;
  let v name = List.assoc name plain.Workloads.layers in
  Alcotest.(check bool) "cops ships the most metadata" true
    (v "row.cops.meta_bytes_per_op" > v "row.saturn.meta_bytes_per_op")

(* the readers the faults-matrix workload applies to each outcome, on one
   row of the matrix *)
let fault_row () =
  let o = Harness.Fault_run.run_scenario ~scenario:"partition" ~system:`Saturn () in
  Alcotest.(check bool) "row is one the catalogue names" true
    (List.mem (o.Harness.Fault_run.scenario, o.Harness.Fault_run.system) Workloads.fault_rows);
  let ops = o.Harness.Fault_run.ops in
  Alcotest.(check bool) "row completes operations" true (ops > 0);
  Alcotest.(check bool) "invariants hold" true (Faults.Checker.ok o.Harness.Fault_run.report);
  let probe = Workloads.probe_layers (Workloads.probe_sum o.Harness.Fault_run.probe) ~ops in
  let peaks = Workloads.gauge_peaks [ o.Harness.Fault_run.series ] in
  let meta_per_op, _ = Workloads.meta_layers o.Harness.Fault_run.registry ~ops in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " > 0") true (List.assoc k probe > 0.))
    [ "link.sends_per_op"; "sink.hold_us_per_label"; "serializer.hops_per_label"; "link.drops" ];
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " > 0") true (List.assoc k peaks > 0.))
    [ "link.in_flight_peak"; "sink.depth_peak"; "serializer.pending_peak"; "proxy.pending_peak" ];
  Alcotest.(check bool) "meta bytes accounted" true (meta_per_op > 0.)

(* ---- names, units, counts ---------------------------------------------------- *)

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let names () =
  let e2e = List.map (fun (m : Catalogue.e2e) -> (m.Catalogue.name, m.Catalogue.unit_)) Catalogue.end_to_end in
  Alcotest.(check bool) "at most 16 end-to-end metrics" true (List.length e2e <= 16);
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Catalogue.per_layer <= 128);
  List.iter
    (fun (n, u) ->
      if not (valid_name n) then Alcotest.failf "bad metric name %S" n;
      if not (valid_unit u) then Alcotest.failf "bad unit %S of %s" u n)
    (e2e @ Catalogue.per_layer);
  let all = List.map fst (e2e @ Catalogue.per_layer) in
  Alcotest.(check int) "names are unique" (List.length all) (List.length (List.sort_uniq compare all));
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json end_to_end = catalogue" e2e
    (List.map (fun b -> (b.Report.bname, b.Report.bunit)) spec.Report.end_to_end);
  Alcotest.(check (list (pair string string))) "BENCHMARK.json per_layer = catalogue" Catalogue.per_layer
    spec.Report.per_layer;
  Alcotest.(check (list string))
    "BENCHMARK.json workloads = perf.exe's"
    (List.map (fun w -> w.Workloads.name) (Workloads.all ()))
    spec.Report.workload_names;
  (* BENCHMARK.json's format caps a bound at 0.25 and gives setup_s the
     largest *)
  let largest = List.fold_left (fun acc b -> Float.max acc b.Report.bound) 0. spec.Report.end_to_end in
  List.iter
    (fun b ->
      if not (b.Report.bound > 0. && b.Report.bound <= 0.25) then
        Alcotest.failf "bound of %s out of range" b.Report.bname)
    spec.Report.end_to_end;
  Alcotest.(check (float 0.)) "setup_s has the largest bound" largest (bound "setup_s").Report.bound

let result_line () =
  let line =
    Report.result_line ~correct:true ~attempted:3 ~failed:0
      [ { Report.name = "wall_s"; unit_ = "s"; value = 1.0 /. 3.0 } ]
  in
  (match Json.parse line with
  | Json.Obj kvs ->
    Alcotest.(check (list string)) "exactly four keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "not an object");
  let r = Report.parse_result line in
  Alcotest.(check (float 0.)) "every digit survives" (1.0 /. 3.0) (List.hd r.Report.metrics).Report.value

(* ---- statistics and the compare gate ------------------------------------------ *)

let quartiles () =
  (* the values Python's statistics.quantiles(xs, n=4) gives *)
  let q xs = Report.quartiles (List.map float_of_int xs) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "1..10" (2.75, 8.25) (q (List.init 10 succ));
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "1..3" (1., 3.) (q [ 3; 1; 2 ]);
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "1..5" (1.5, 4.5) (q [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "two" (0.75, 2.25) (q [ 2; 1 ]);
  Alcotest.(check (float 0.)) "median of four" 2.5 (Report.median [ 4.; 1.; 3.; 2. ])

(* slices between checkpoints exclude the reference's own time, and each
   takes the mean reference on its two sides *)
let calib () =
  let c before_ns ref_s after_ns = { Calib.before_ns; ref_s; after_ns } in
  let slices, refs =
    Calib.slices [ c 0 0.002 2_000_000; c 1_002_000_000 0.004 1_006_000_000; c 3_006_000_000 0.003 3_009_000_000 ]
  in
  Alcotest.(check (array (float 1e-12))) "slice times" [| 1.0; 2.0 |] slices;
  Alcotest.(check (array (float 1e-12))) "references" [| 0.003; 0.0035 |] refs;
  Alcotest.(check (float 1e-12)) "a reference twice the nominal halves the time" 1.5
    (Calib.scaled ~ref_s:(2. *. Calib.nominal_s) 3.0)

let runs_of centre = List.map (fun d -> centre *. (1. +. d)) [ -0.01; -0.005; 0.; 0.005; 0.01 ]

(* the bounds and floors BENCHMARK.json ships, as perf.exe compare applies
   them *)
let verdicts () =
  let v ?same_seed ?intended name ~base ~fresh =
    Report.verdict_name (Report.verdict ?same_seed ?intended (bound name) ~base ~fresh)
  in
  Alcotest.(check string) "+30% wall_s is worse" "worse" (v "wall_s" ~base:(runs_of 1.0) ~fresh:(runs_of 1.3));
  Alcotest.(check string) "+10% wall_s is ok" "ok" (v "wall_s" ~base:(runs_of 1.0) ~fresh:(runs_of 1.1));
  Alcotest.(check string) "-20% wall_s is ok" "ok" (v "wall_s" ~base:(runs_of 1.0) ~fresh:(runs_of 0.8));
  let wide c = List.map (fun d -> c *. (1. +. d)) [ -0.3; -0.15; 0.; 0.15; 0.3 ] in
  Alcotest.(check string) "a wide overlapping spread is unresolved" "unresolved"
    (v "wall_s" ~base:(runs_of 1.0) ~fresh:(wide 1.02));
  Alcotest.(check string) "a wide spread where every NEW run wins is ok" "ok"
    (v "wall_s" ~base:(wide 2.0) ~fresh:(wide 1.0));
  Alcotest.(check string) "+40% of a 2 ms set-up is under the 0.05 s floor" "ok"
    (v "setup_s" ~base:(runs_of 0.002) ~fresh:(runs_of 0.0028));
  Alcotest.(check string) "+30% of a 2 s set-up is worse" "worse"
    (v "setup_s" ~base:(runs_of 2.0) ~fresh:(runs_of 2.6));
  let same c = [ c; c; c; c; c ] in
  Alcotest.(check string) "higher-is-better drop across seeds is worse" "worse"
    (v "sim_ops_per_s" ~base:(same 1000.) ~fresh:(same 800.));
  Alcotest.(check string) "-1% throughput across seeds is within the bound" "ok"
    (v "sim_ops_per_s" ~base:(same 1000.) ~fresh:(same 990.));
  Alcotest.(check string) "-1% throughput at the same seed is worse" "worse"
    (v ~same_seed:true "sim_ops_per_s" ~base:(same 1000.) ~fresh:(same 990.));
  Alcotest.(check string) "+1% throughput at the same seed is a change too" "worse"
    (v ~same_seed:true "sim_ops_per_s" ~base:(same 1000.) ~fresh:(same 1010.));
  Alcotest.(check string) "an intended change is held to the bound" "ok"
    (v ~same_seed:true ~intended:true "sim_ops_per_s" ~base:(same 1000.) ~fresh:(same 990.));
  Alcotest.(check string) "host time is never exact" "ok"
    (v ~same_seed:true "wall_s" ~base:(runs_of 1.0) ~fresh:(runs_of 1.01))

let failed_ops () =
  let doc ~failed ~seed ~ops =
    {
      Report.seed;
      workloads =
        [
          {
            Report.wname = "ec2-7dc";
            wcorrect = true;
            wattempted = 100;
            wfailed = failed;
            series =
              [
                { Report.sname = "wall_s"; sunit = "s"; values = runs_of 1.0 };
                { Report.sname = "sim_ops_per_s"; sunit = "ops/sim-s"; values = [ ops; ops ] };
              ];
          };
        ];
    }
  in
  let spec = { spec with Report.end_to_end = [ bound "wall_s"; bound "sim_ops_per_s" ] } in
  let verdicts (rows, _) = List.map (fun r -> Report.verdict_name r.Report.row_verdict) rows in
  let problems (_, ps) = List.length ps in
  let base = doc ~failed:0 ~seed:42 ~ops:1000. in
  let cmp ?intended fresh = Report.compare_runs ?intended spec ~base ~fresh in
  let r = cmp (doc ~failed:1 ~seed:42 ~ops:1000.) in
  Alcotest.(check (list string)) "the pairs themselves are ok" [ "ok"; "ok" ] (verdicts r);
  Alcotest.(check int) "0 -> 1 failed op of 100 is rejected" 1 (problems r);
  Alcotest.(check int) "equal failures pass" 0 (problems (cmp base));
  Alcotest.(check (list string)) "a deterministic change at the same seed is worse" [ "ok"; "worse" ]
    (verdicts (cmp (doc ~failed:0 ~seed:42 ~ops:999.)));
  Alcotest.(check (list string)) "unless NEW declares it" [ "ok"; "ok" ]
    (verdicts (cmp ~intended:[ "sim_ops_per_s" ] (doc ~failed:0 ~seed:42 ~ops:999.)));
  Alcotest.(check (list string)) "across seeds the bound applies" [ "ok"; "ok" ]
    (verdicts (cmp (doc ~failed:0 ~seed:7 ~ops:999.)));
  let text = Report.run_json ~seed:42 ~seconds:1 ~reps:5 (doc ~failed:2 ~seed:42 ~ops:1.).Report.workloads in
  let back = Report.parse_run text in
  Alcotest.(check int) "run documents round-trip the seed" 42 back.Report.seed;
  Alcotest.(check int) "and the failures" 2 (List.hd back.Report.workloads).Report.wfailed

let () =
  Alcotest.run "perf"
    [
      ( "workloads",
        [
          Alcotest.test_case "ec2-7dc, short horizon" `Quick ec2;
          Alcotest.test_case "scale at the 61k tier" `Quick scale;
          Alcotest.test_case "shootout-8 against BENCH_shootout.json" `Quick shootout;
          Alcotest.test_case "one fault-matrix row" `Quick fault_row;
        ] );
      ( "contract",
        [
          Alcotest.test_case "names, units, counts" `Quick names;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
      ( "compare",
        [
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "reference scaling" `Quick calib;
          Alcotest.test_case "verdicts" `Quick verdicts;
          Alcotest.test_case "failed operations" `Quick failed_ops;
        ] );
    ]
