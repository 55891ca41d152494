(* Tests for Stats.Series: windowed telemetry semantics, recovery-point
   detection, and digest determinism under random fault plans. *)

let qtest = QCheck_alcotest.to_alcotest
let ms = Sim.Time.of_ms

(* ---- window semantics ------------------------------------------------------ *)

(* windows are left-closed, right-open: an event at exactly k*window lands
   in window k only *)
let test_window_edge () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let c = Stats.Series.counter t "series.edge" in
  Stats.Series.incr c ~now:(Sim.Time.of_us 49_999);
  Stats.Series.incr c ~now:(ms 50);
  Stats.Series.seal t ~now:(ms 120);
  let p = Stats.Series.points t "series.edge" in
  Alcotest.(check int) "three windows" 3 (Stats.Series.n_windows t);
  Alcotest.(check int) "window 0 delta" 1 p.(0).Stats.Series.count;
  Alcotest.(check int) "window 1 delta (boundary event)" 1 p.(1).Stats.Series.count;
  Alcotest.(check int) "window 2 empty" 0 p.(2).Stats.Series.count

let test_empty_windows_padded () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let c = Stats.Series.counter t "series.sparse" in
  Stats.Series.incr ~by:7 c ~now:(ms 10);
  (* nothing in windows 1-3 *)
  Stats.Series.incr ~by:2 c ~now:(ms 210);
  Stats.Series.seal t ~now:(ms 240);
  let v = Stats.Series.primary t "series.sparse" in
  Alcotest.(check (array (float 1e-9)))
    "deltas with zero-filled gaps" [| 7.; 0.; 0.; 0.; 2. |] v

(* ---- counter-delta vs gauge-sample ---------------------------------------- *)

let test_counter_vs_gauge () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let c = Stats.Series.counter t "series.rate" in
  let level = ref 0. in
  Stats.Series.sample t "series.depth" (fun () -> !level);
  (* window 0: three increments, gauge sampled at 2 then 10 *)
  Stats.Series.incr ~by:3 c ~now:(ms 5);
  level := 2.;
  Stats.Series.tick t ~now:(ms 10);
  level := 10.;
  Stats.Series.tick t ~now:(ms 40);
  (* window 1: one increment, gauge back at 4 *)
  Stats.Series.incr c ~now:(ms 60);
  level := 4.;
  Stats.Series.tick t ~now:(ms 70);
  Stats.Series.seal t ~now:(ms 99);
  (* counters report the per-window delta, not the running total *)
  Alcotest.(check (array (float 1e-9))) "counter deltas" [| 3.; 1. |]
    (Stats.Series.primary t "series.rate");
  let g = Stats.Series.points t "series.depth" in
  Alcotest.(check int) "gauge samples in window 0" 2 g.(0).Stats.Series.count;
  Alcotest.(check (float 1e-9)) "gauge min" 2. g.(0).Stats.Series.vmin;
  Alcotest.(check (float 1e-9)) "gauge mean" 6. g.(0).Stats.Series.vmean;
  Alcotest.(check (float 1e-9)) "gauge max" 10. g.(0).Stats.Series.vmax;
  (* a gauge's primary is its per-window max *)
  Alcotest.(check (array (float 1e-9))) "gauge primary" [| 10.; 4. |]
    (Stats.Series.primary t "series.depth");
  Alcotest.(check bool) "kinds differ" true
    (Stats.Series.kind_of t "series.rate" <> Stats.Series.kind_of t "series.depth")

let test_hist_per_window () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let h = Stats.Series.hist t "series.lat_ms" in
  List.iter (Stats.Series.observe h ~now:(ms 10)) [ 10.; 10.; 10.; 10. ];
  (* the next window's histogram is reused (reset), not contaminated *)
  List.iter (Stats.Series.observe h ~now:(ms 60)) [ 100.; 100. ];
  Stats.Series.seal t ~now:(ms 99);
  let p = Stats.Series.points t "series.lat_ms" in
  Alcotest.(check int) "window 0 n" 4 p.(0).Stats.Series.count;
  Alcotest.(check bool) "window 0 p99 near 10" true (abs_float (p.(0).Stats.Series.p99 -. 10.) < 2.);
  Alcotest.(check bool) "window 1 p99 near 100 (no carry-over)" true
    (abs_float (p.(1).Stats.Series.p99 -. 100.) < 2.)

(* ---- registration rules ---------------------------------------------------- *)

let test_registration_rules () =
  let t = Stats.Series.create () in
  Alcotest.check_raises "names must start with series."
    (Invalid_argument "Series: name \"bogus.name\" must start with \"series.\"") (fun () ->
      ignore (Stats.Series.counter t "bogus.name"));
  Stats.Series.sample t "series.g" (fun () -> 0.);
  (* a second closure for the same gauge would be ambiguous *)
  Alcotest.(check bool) "duplicate gauge raises" true
    (try
       Stats.Series.sample t "series.g" (fun () -> 1.);
       false
     with Invalid_argument _ -> true);
  (* one name, one kind *)
  Alcotest.(check bool) "kind clash raises" true
    (try
       ignore (Stats.Series.counter t "series.g");
       false
     with Invalid_argument _ -> true)

(* ---- recovery detection ----------------------------------------------------- *)

(* hand-built series: steady at 10, spikes to 100 at the fault (window 8),
   heals at window 14, decays back to steady at window 17 *)
let test_recovery_window () =
  let values =
    Array.init 24 (fun i -> if i >= 8 && i < 17 then 100. else 10.)
  in
  Alcotest.(check (option int)) "first recovered window" (Some 17)
    (Stats.Series.recovery_window ~window_us:50_000 ~fault_at_us:400_000 ~heal_at_us:700_000
       values);
  (* still elevated at the heal itself: detection must not fire early *)
  Alcotest.(check (option int)) "not the heal window" (Some 17)
    (Stats.Series.recovery_window ~window_us:50_000 ~fault_at_us:400_000 ~heal_at_us:700_000
       ~tolerance:0.5 values);
  (* no pre-fault windows: nothing to calibrate against *)
  Alcotest.(check (option int)) "no steady state" None
    (Stats.Series.recovery_window ~window_us:50_000 ~fault_at_us:0 ~heal_at_us:100_000 values);
  (* never recovers *)
  Alcotest.(check (option int)) "no recovery" None
    (Stats.Series.recovery_window ~window_us:50_000 ~fault_at_us:400_000 ~heal_at_us:700_000
       (Array.init 24 (fun i -> if i >= 8 then 100. else 10.)))

(* the boundary cases of the window quantization: a fault landing exactly
   on a window's left edge makes that window fault-era (excluded from the
   steady-state calibration), and a heal landing exactly on a left edge
   makes that very window the first recovery candidate *)
let test_recovery_window_boundary () =
  let w = 50_000 in
  (* fault at exactly window 4's left edge; elevated through window 8 *)
  let v = Array.init 12 (fun i -> if i >= 4 && i < 9 then 100. else 10.) in
  Alcotest.(check (option int)) "boundary fault window excluded from steady state" (Some 9)
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(4 * w) ~heal_at_us:(8 * w) v);
  (* heal at exactly window 8's left edge, and window 8 is already back at
     steady: the heal window itself is the answer *)
  let v2 = Array.init 12 (fun i -> if i >= 4 && i < 8 then 100. else 10.) in
  Alcotest.(check (option int)) "heal-boundary window itself can be the recovery" (Some 8)
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(4 * w) ~heal_at_us:(8 * w) v2);
  (* one microsecond earlier the heal falls inside window 7, which is still
     elevated — the scan starts there and walks forward to the same answer *)
  Alcotest.(check (option int)) "heal one us before the boundary" (Some 8)
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(4 * w) ~heal_at_us:((8 * w) - 1) v2)

(* degenerate inputs: an empty series has no steady state and no windows
   to scan, and a series that only recovers in its very last window must
   still report that window rather than treating the array end as a miss *)
let test_recovery_window_edges () =
  let w = 50_000 in
  Alcotest.(check (option int)) "empty series" None
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(2 * w) ~heal_at_us:(4 * w) [||]);
  (* elevated all the way through the penultimate window: the final window
     is the first (and only) recovered one *)
  let v = Array.init 12 (fun i -> if i >= 4 && i < 11 then 100. else 10.) in
  Alcotest.(check (option int)) "recovery at the final window" (Some 11)
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(4 * w) ~heal_at_us:(6 * w) v);
  (* heal lands past the end of the recorded windows: nothing to scan *)
  Alcotest.(check (option int)) "heal beyond the recorded range" None
    (Stats.Series.recovery_window ~window_us:w ~fault_at_us:(4 * w) ~heal_at_us:(20 * w) v)

(* when the series never returns to steady state, the window-derived
   recovery is None and the agreement cross-check declines to answer
   rather than reporting a spurious (dis)agreement *)
let test_recovery_never_happens () =
  let series = Stats.Series.create ~window:(ms 50) () in
  let h = Stats.Series.hist series "series.vis_ms" in
  for i = 0 to 23 do
    Stats.Series.observe h
      ~now:(Sim.Time.of_us ((i * 50_000) + 10_000))
      (if i >= 8 then 100. else 10.)
  done;
  (* seal inside the last observed window: an extra empty window would
     read as "recovered" (p99 back to 0) and defeat the point *)
  Stats.Series.seal series ~now:(ms 1195);
  let o =
    {
      Harness.Fault_run.scenario = "synthetic";
      system = "saturn";
      ops = 0;
      vis_mean_ms = 0.;
      vis_p99_ms = 0.;
      recovery_ms = 120.;
      report = Faults.Checker.analyze (Sim.Probe.create ());
      digest = "";
      n_events = 0;
      registry = Stats.Registry.create ();
      series;
      fault_at_us = Some 400_000;
      heal_at_us = Some 700_000;
      probe = Sim.Probe.create ();
    }
  in
  Alcotest.(check (option (float 1e-9))) "series_recovery_ms is None" None
    (Harness.Fault_run.series_recovery_ms o);
  Alcotest.(check (option bool)) "recovery_agrees is None" None
    (Harness.Fault_run.recovery_agrees o)

(* ---- annotations -------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_annotations () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let c = Stats.Series.counter t "series.a" in
  Stats.Series.incr c ~now:(ms 10);
  (* emitted out of order, two at the same instant *)
  Stats.Series.annotate t ~us:60_000 "switch.graceful";
  Stats.Series.annotate t ~us:10_000 "fault";
  Stats.Series.annotate t ~us:10_000 "a-first";
  Stats.Series.seal t ~now:(ms 100);
  Alcotest.(check (list (pair int string)))
    "sorted by time then name"
    [ (10_000, "a-first"); (10_000, "fault"); (60_000, "switch.graceful") ]
    (Stats.Series.annotations t);
  (* CSV pseudo-rows keep the column count and place the mark in its window *)
  let lines = String.split_on_char '\n' (Stats.Series.to_csv t) in
  Alcotest.(check bool) "csv pseudo-row, window 1" true
    (List.mem "switch.graceful,annotation,1,60.0,0,0.000,0.000,0.000,0.000,0.000" lines);
  Alcotest.(check bool) "csv pseudo-row, window 0" true
    (List.mem "fault,annotation,0,10.0,0,0.000,0.000,0.000,0.000,0.000" lines);
  Alcotest.(check bool) "json annotations array" true
    (contains (Stats.Series.to_json t)
       "\"annotations\":[{\"name\":\"a-first\",\"us\":10000,\"w\":0}");
  (* the digest is over the CSV, pseudo-rows included: a mark drifting in
     time or appearing/vanishing fails the determinism gate *)
  let d = Stats.Series.digest t in
  Stats.Series.annotate t ~us:90_000 "heal";
  Alcotest.(check bool) "digest covers annotations" true (d <> Stats.Series.digest t)

(* ---- rendering --------------------------------------------------------------- *)

let test_sparkline () =
  Alcotest.(check string) "zeros render as spaces" "    " (Stats.Series.sparkline [| 0.; 0.; 0.; 0. |]);
  let s = Stats.Series.sparkline [| 0.; 1.; 5.; 10. |] in
  Alcotest.(check int) "one char per window" 4 (String.length s);
  Alcotest.(check char) "zero is blank" ' ' s.[0];
  Alcotest.(check char) "max is the densest glyph" '@' s.[3]

let test_csv_shape () =
  let t = Stats.Series.create ~window:(ms 50) () in
  let c = Stats.Series.counter t "series.a" in
  Stats.Series.incr c ~now:(ms 10);
  Stats.Series.seal t ~now:(ms 60);
  (match String.split_on_char '\n' (Stats.Series.to_csv t) with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "series,kind,window,start_ms,count,min,mean,max,p50,p99" header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check int) "digest is 16 hex chars" 16 (String.length (Stats.Series.digest t))

(* ---- digest determinism under random fault plans ----------------------------- *)

(* one Saturn run under a random fault plan, returning the sealed series
   digest; the same seed must reproduce it bit-for-bit *)
let series_digest_of_random_plan ~seed =
  let spec = { (Harness.Build.three_site Harness.Build.chain_config) with serializer_replicas = 2 } in
  let { Harness.Build.topo; dc_sites; rmap; _ } = spec in
  let n_keys = Kvstore.Replica_map.n_keys rmap in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let freg = Faults.Registry.create () in
  let series = Stats.Series.create () in
  let metrics = Harness.Metrics.create ~registry engine ~topo ~dc_sites in
  let api, _system = Harness.Build.saturn ~registry ~series ~faults:freg engine spec metrics in
  let vis = Stats.Series.hist series "series.vis_ms" in
  Harness.Metrics.subscribe metrics (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time ~value:_ ->
      let now = Sim.Engine.now engine in
      Stats.Series.observe vis ~now (Sim.Time.to_ms_float (Sim.Time.sub now origin_time)));
  let plan =
    Faults.Plan.random ~seed
      ~link_names:(Faults.Registry.link_names freg)
      ~serializer_names:(Faults.Registry.serializer_names freg)
      ~clock_names:(Faults.Registry.clock_names freg)
      ~max_replica_crashes:1
      ~horizon:(Sim.Time.of_ms 500) ()
  in
  let (_ : Faults.Injector.t) = Faults.Injector.arm ~registry engine freg plan in
  let clients = Harness.Driver.make_clients ~dc_sites ~per_dc:2 in
  let syn =
    Workload.Synthetic.create
      { Workload.Synthetic.default with n_keys; read_ratio = 0.5; seed }
      ~rmap ~topo ~dc_sites
  in
  ignore
    (Harness.Driver.run engine api metrics ~clients
       ~next_op:(fun c -> Workload.Synthetic.next syn ~dc:c.Harness.Client.preferred_dc)
       ~warmup:(Sim.Time.of_ms 100) ~measure:(Sim.Time.of_ms 400)
       ~cooldown:(Sim.Time.of_ms 100));
  Stats.Series.seal series ~now:(Sim.Engine.now engine);
  (Stats.Series.digest series, Stats.Series.n_windows series)

let prop_series_digest_deterministic =
  QCheck.Test.make ~name:"series digest identical across two runs of a random fault plan"
    ~count:3
    QCheck.(int_bound 1000)
    (fun seed ->
      let d1, w1 = series_digest_of_random_plan ~seed in
      let d2, w2 = series_digest_of_random_plan ~seed in
      if w1 = 0 then QCheck.Test.fail_report "no windows closed";
      String.equal d1 d2 && w1 = w2)

(* ---- fault-run integration ---------------------------------------------------- *)

(* the partition cell of the fault matrix: queue depths must rise during
   the cut and return to steady state, and the series-derived recovery
   point must agree with the drain-based faults.recovery_ms *)
let test_partition_timeline () =
  let o = Harness.Fault_run.run_scenario ~seed:7 ~scenario:"partition" ~system:`Saturn () in
  let sr = o.Harness.Fault_run.series in
  let fault_us = Option.get o.Harness.Fault_run.fault_at_us in
  let heal_us = Option.get o.Harness.Fault_run.heal_at_us in
  let w_us = Sim.Time.to_us (Stats.Series.window sr) in
  let peak_in lo hi v =
    let acc = ref 0. in
    Array.iteri (fun i x -> if i >= lo && i < hi && x > !acc then acc := x) v;
    !acc
  in
  let check_queue name =
    let v = Stats.Series.primary sr name in
    let fw = fault_us / w_us and hw = heal_us / w_us in
    let steady = peak_in 1 fw v in
    let during = peak_in fw (hw + 4) v in
    Alcotest.(check bool) (name ^ " builds up during the cut") true (during > 2. *. steady);
    let tail = peak_in (Array.length v - 6) (Array.length v) v in
    Alcotest.(check bool) (name ^ " drains after the heal") true (tail < during /. 2.)
  in
  check_queue "series.pending.dc2";
  check_queue "series.ser2.pending";
  Alcotest.(check (option bool)) "series recovery agrees with faults.recovery_ms" (Some true)
    (Harness.Fault_run.recovery_agrees o)

let suite =
  [
    Alcotest.test_case "window edge is left-closed right-open" `Quick test_window_edge;
    Alcotest.test_case "empty windows are zero-padded" `Quick test_empty_windows_padded;
    Alcotest.test_case "counter delta vs gauge sample" `Quick test_counter_vs_gauge;
    Alcotest.test_case "per-window histogram percentiles" `Quick test_hist_per_window;
    Alcotest.test_case "registration rules" `Quick test_registration_rules;
    Alcotest.test_case "recovery-point detection" `Quick test_recovery_window;
    Alcotest.test_case "recovery window: fault/heal exactly on a boundary" `Quick
      test_recovery_window_boundary;
    Alcotest.test_case "recovery window: empty series, final-window recovery" `Quick
      test_recovery_window_edges;
    Alcotest.test_case "recovery never happens: series answer is None" `Quick
      test_recovery_never_happens;
    Alcotest.test_case "annotations: ordering, csv/json rows, digest coverage" `Quick
      test_annotations;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "csv shape + digest" `Quick test_csv_shape;
    qtest prop_series_digest_deterministic;
    Alcotest.test_case "partition timeline: buildup, drain, recovery agreement" `Slow
      test_partition_timeline;
  ]
