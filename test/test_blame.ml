(* Tests for Harness.Blame (optimality-gap attribution) and Harness.Diff
   (differential run localization): the optimal matrix is a true all-pairs
   shortest path, every journey's blame parts tile its gap exactly, the
   gap artifacts are deterministic, and the localizers name the first
   diverging window / counter / journey instead of dumping raw diffs. *)

module Blame = Harness.Blame
module Diff = Harness.Diff

(* one smoke run shared across the blame tests *)
let smoke = lazy (Harness.Obs.smoke ())

(* ---- optimal matrix -------------------------------------------------------- *)

let test_optimal_matrix_topo3 () =
  let topo = Harness.Build.topo3 () in
  let m = Blame.optimal_matrix ~topo ~dc_sites:[| 0; 1; 2 |] ~bulk_factor:1.0 in
  (* topo3 respects the triangle inequality, so optimal = direct *)
  Alcotest.(check (array (array int)))
    "direct latencies in us"
    [| [| 0; 40_000; 90_000 |]; [| 40_000; 0; 50_000 |]; [| 90_000; 50_000; 0 |] |]
    m;
  let m2 = Blame.optimal_matrix ~topo ~dc_sites:[| 0; 1; 2 |] ~bulk_factor:0.5 in
  Alcotest.(check int) "bulk_factor scales the matrix" 20_000 m2.(0).(1)

let test_optimal_matrix_relays () =
  (* a geography that violates the triangle inequality: west->east direct
     is 100ms but relaying through central costs 10+10. Floyd-Warshall
     must find the 20ms floor — the paper's "deviation from optimal"
     baseline, not the direct-link cost *)
  let topo =
    Sim.Topology.create
      ~names:[| "west"; "central"; "east" |]
      ~latency_ms:[| [| 0; 10; 100 |]; [| 10; 0; 10 |]; [| 100; 10; 0 |] |]
  in
  let m = Blame.optimal_matrix ~topo ~dc_sites:[| 0; 1; 2 |] ~bulk_factor:1.0 in
  Alcotest.(check int) "relayed path beats the direct link" 20_000 m.(0).(2);
  Alcotest.(check int) "symmetric" 20_000 m.(2).(0);
  Alcotest.(check int) "diagonal is zero" 0 m.(1).(1)

(* ---- blame tiling on the smoke scenario ------------------------------------ *)

let test_smoke_blame_tiles () =
  let r = Lazy.force smoke in
  let b = r.Harness.Obs.blame in
  (match Blame.check b with
  | Ok () -> ()
  | Error ms -> Alcotest.failf "%d blame mismatches, e.g. %s" (List.length ms) (List.hd ms));
  Alcotest.(check bool) "journeys blamed" true (List.length b.Blame.blamed > 0);
  List.iter
    (fun (bl : Blame.blamed) ->
      Alcotest.(check bool) "gap never negative" true (bl.Blame.gap_us >= 0);
      (* one entry per part, in presentation order, summing exactly to the gap *)
      Alcotest.(check (list string))
        "blame covers every part in order"
        (List.map Blame.part_name Blame.parts)
        (List.map (fun (p, _) -> Blame.part_name p) bl.Blame.blame);
      Alcotest.(check int)
        (Printf.sprintf "dc%d#%d->dc%d parts tile the gap" bl.Blame.j.Harness.Journey.origin
           bl.Blame.j.Harness.Journey.oseq bl.Blame.j.Harness.Journey.dst)
        bl.Blame.gap_us
        (List.fold_left (fun acc (_, us) -> acc + us) 0 bl.Blame.blame))
    b.Blame.blamed;
  (* the scenario's configured delta-delays must surface as culprits *)
  let culprit n =
    List.exists (fun (c : Blame.culprit_stat) -> String.equal c.Blame.culprit n) b.Blame.culprits
  in
  Alcotest.(check bool) "egress delta culprit" true (culprit "delta.s1->dc1");
  Alcotest.(check bool) "hop delta culprit" true (culprit "delta.s0->s1");
  (* topo3's chain rides shortest paths: no route detours *)
  Alcotest.(check bool) "no route culprit on topo3" false (culprit "route.dc0->dc2")

let test_smoke_blame_deterministic () =
  let r = Lazy.force smoke in
  (* re-deriving the report from the same probe must reproduce the digest
     bit-for-bit — the property the CI double-run blame gate leans on *)
  let optimal =
    Blame.optimal_matrix ~topo:(Harness.Build.topo3 ()) ~dc_sites:[| 0; 1; 2 |] ~bulk_factor:1.0
  in
  let again = Blame.analyze ~optimal (Harness.Journey.analyze r.Harness.Obs.probe) in
  Alcotest.(check string) "digest replays" (Blame.digest r.Harness.Obs.blame) (Blame.digest again);
  Alcotest.(check int) "16 hex digits" 16 (String.length (Blame.digest again))

let test_top_k_and_render () =
  let b = (Lazy.force smoke).Harness.Obs.blame in
  let top = Blame.top_k b ~k:5 in
  Alcotest.(check int) "k journeys" 5 (List.length top);
  let gaps = List.map (fun (bl : Blame.blamed) -> bl.Blame.gap_us) top in
  Alcotest.(check (list int)) "sorted by gap desc" (List.sort (fun a b -> compare b a) gaps) gaps;
  (* the slowest journey's gap is the histogram's max *)
  Alcotest.(check int) "top journey is the max gap"
    (Stats.Hdr.max_value b.Blame.gap_hist)
    (List.hd gaps);
  let j = Blame.render_journey (List.hd top) in
  Alcotest.(check bool) "journey renders its path legs" true (String.length j > 0
    && String.contains j '|');
  let has_sub ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-part table renders" true
    (has_sub ~sub:"sink_hold" (Stats.Table.render (Blame.table b)));
  Alcotest.(check bool) "culprit table renders" true
    (has_sub ~sub:"delta.s1->dc1" (Stats.Table.render (Blame.culprit_table b)));
  Alcotest.(check bool) "full report renders the digest" true
    (has_sub ~sub:(Blame.digest b) (Blame.render ~top:2 b))

(* the tail is the slowest tenth of by_gap by position: on reconfig-forced
   an identity repeats across the two trees, and a twin outside that tenth
   must not count toward any culprit's tail µs *)
let test_tail_by_position () =
  let o = Harness.Fault_run.run_scenario ~scenario:"reconfig-forced" ~system:`Saturn () in
  let b = Harness.Fault_run.blame (Harness.Journey.analyze o.Harness.Fault_run.probe) in
  let n = List.length b.Blame.by_gap in
  let tail = List.filteri (fun i _ -> i < max 1 (n / 10)) b.Blame.by_gap in
  let culprit_us (bl : Blame.blamed) =
    List.fold_left (fun acc (_, us) -> acc + us) 0 bl.Blame.culprits
  in
  Alcotest.(check int) "culprit tail us = the tail journeys' culprit us"
    (List.fold_left (fun acc bl -> acc + culprit_us bl) 0 tail)
    (List.fold_left (fun acc (c : Blame.culprit_stat) -> acc + c.Blame.c_tail_us) 0 b.Blame.culprits)

let test_fold_counters () =
  let b = (Lazy.force smoke).Harness.Obs.blame in
  let reg = Stats.Registry.create () in
  Blame.fold_counters b reg;
  let v name =
    match Stats.Registry.find reg name with
    | Some (Stats.Registry.Counter n) -> n
    | _ -> Alcotest.failf "counter %s not registered" name
  in
  Alcotest.(check int) "blame.journeys" (List.length b.Blame.blamed) (v "blame.journeys");
  Alcotest.(check int) "blame.gap.us tiles into parts"
    (v "blame.gap.us")
    (List.fold_left
       (fun acc p -> acc + v (Printf.sprintf "blame.part.%s.us" (Blame.part_name p)))
       0 Blame.parts)

(* ---- fault-run gap recovery ------------------------------------------------- *)

let test_gap_recovery_wired () =
  (* gap_recovery_ms mirrors series_recovery_ms but over series.gap_ms:
     a synthetic outcome whose gap series spikes at the fault and returns
     to steady at window 17 answers 150ms after the 700ms heal, even when
     no series.vis_ms was ever registered *)
  let series = Stats.Series.create ~window:(Sim.Time.of_ms 50) () in
  let h = Stats.Series.hist series "series.gap_ms" in
  for i = 0 to 23 do
    Stats.Series.observe h
      ~now:(Sim.Time.of_us ((i * 50_000) + 10_000))
      (if i >= 8 && i < 17 then 100. else 10.)
  done;
  Stats.Series.seal series ~now:(Sim.Time.of_ms 1195);
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
  Alcotest.(check (option (float 1e-9))) "gap recovery at window 17" (Some 150.)
    (Harness.Fault_run.gap_recovery_ms o);
  Alcotest.(check (option (float 1e-9))) "vis series absent: vis recovery is None" None
    (Harness.Fault_run.series_recovery_ms o)

(* ---- differential localizers ------------------------------------------------ *)

let test_diff_lines () =
  Alcotest.(check bool) "identical" true (Diff.lines "a\nb\n" "a\nb\n" = Diff.Same);
  (match Diff.lines "a\nb\n" "a\nc\n" with
  | Diff.Differs f ->
    Alcotest.(check string) "kind" "line" f.Diff.kind;
    Alcotest.(check string) "first diverging line" "line 2" f.Diff.where;
    Alcotest.(check string) "A side" "b" f.Diff.a;
    Alcotest.(check string) "B side" "c" f.Diff.b
  | Diff.Same -> Alcotest.fail "expected divergence");
  match Diff.lines "a\n" "a\nextra\n" with
  | Diff.Differs f -> Alcotest.(check string) "one-sided tail" "<absent>" f.Diff.a
  | Diff.Same -> Alcotest.fail "expected divergence"

let test_diff_counters () =
  let a = "# comment\nalpha 1\nbeta 2\ngamma 3\n" in
  Alcotest.(check bool) "comments ignored" true (Diff.counters a "alpha 1\nbeta 2\ngamma 3\n" = Diff.Same);
  (match Diff.counters a "alpha 1\nbeta 5\ngamma 3\n" with
  | Diff.Differs f ->
    Alcotest.(check string) "names the drifted counter" "counter beta" f.Diff.where;
    Alcotest.(check string) "A value" "2" f.Diff.a;
    Alcotest.(check string) "B value" "5" f.Diff.b
  | Diff.Same -> Alcotest.fail "expected divergence");
  (* a missing counter is one finding, not a cascade over later lines *)
  match Diff.counters a "alpha 1\ngamma 3\n" with
  | Diff.Differs f ->
    Alcotest.(check string) "missing counter named" "counter beta" f.Diff.where;
    Alcotest.(check string) "absent on B" "<absent>" f.Diff.b
  | Diff.Same -> Alcotest.fail "expected divergence"

let test_diff_series_csv () =
  let a =
    "series.vis_ms,hist,11,550.0,10,1.2,3.4\nseries.vis_ms,hist,12,600.0,10,1.2,3.4\n"
  in
  let b =
    "series.vis_ms,hist,11,550.0,10,1.2,3.4\nseries.vis_ms,hist,12,600.0,10,1.2,9.9\n"
  in
  Alcotest.(check bool) "identical" true (Diff.series_csv a a = Diff.Same);
  match Diff.series_csv a b with
  | Diff.Differs f ->
    Alcotest.(check string) "names series and window"
      "series series.vis_ms window 12 (start 600.0ms)" f.Diff.where
  | Diff.Same -> Alcotest.fail "expected divergence"

let test_diff_journeys () =
  let b = (Lazy.force smoke).Harness.Obs.blame in
  let csv = Blame.gap_csv b in
  Alcotest.(check bool) "gap csv agrees with itself" true (Diff.journeys csv csv = Diff.Same);
  (* perturb one journey's gap field: the localizer must name the journey
     and the exact column, not just a line number *)
  let ls = String.split_on_char '\n' csv in
  let target = List.nth ls 7 in
  let perturbed =
    String.concat "\n"
      (List.map
         (fun l ->
           if l == target then
             match String.split_on_char ',' l with
             | o :: q :: d :: p :: v :: _opt :: rest ->
               String.concat "," (o :: q :: d :: p :: v :: "123456" :: rest)
             | _ -> l
           else l)
         ls)
  in
  match Diff.journeys csv perturbed with
  | Diff.Differs f ->
    let id =
      match String.split_on_char ',' target with
      | o :: q :: d :: _ -> Printf.sprintf "journey dc%s#%s -> dc%s optimal_us" o q d
      | _ -> assert false
    in
    Alcotest.(check string) "names journey and column" id f.Diff.where;
    (* drop journey dc0#9 -> dc1 from B: rows are in numeric, not string,
       order, so the walk must follow the files, and name both rows *)
    let dropped =
      String.concat "\n"
        (List.filter (fun l -> not (String.starts_with ~prefix:"0,9,1," l)) ls)
    in
    (match Diff.journeys csv dropped with
    | Diff.Differs f ->
      Alcotest.(check string) "names both journeys"
        "journey dc0#9 -> dc1 vs journey dc0#10 -> dc1" f.Diff.where;
      Alcotest.(check bool) "A's row is the dropped one" true
        (String.starts_with ~prefix:"0,9,1," f.Diff.a);
      Alcotest.(check bool) "B's row is the next one" true
        (String.starts_with ~prefix:"0,10,1," f.Diff.b)
    | Diff.Same -> Alcotest.fail "expected divergence")
  | Diff.Same -> Alcotest.fail "expected divergence"

let test_diff_dispatch_and_render () =
  (* content picks the localizer from the basename *)
  (match Diff.content ~file:"run1/smoke-counters.txt" "a 1\n" "a 2\n" with
  | Diff.Differs f -> Alcotest.(check string) "counters dispatch" "counter" f.Diff.kind
  | Diff.Same -> Alcotest.fail "expected divergence");
  (match Diff.content ~file:"out/series.csv" "s,hist,0,0.0,1\n" "s,hist,0,0.0,2\n" with
  | Diff.Differs f -> Alcotest.(check string) "series dispatch" "series" f.Diff.kind
  | Diff.Same -> Alcotest.fail "expected divergence");
  match Diff.content ~file:"notes.md" "x\n" "y\n" with
  | Diff.Differs f ->
    Alcotest.(check string) "fallback dispatch" "line" f.Diff.kind;
    Alcotest.(check string) "render shows locator and both sides"
      "first divergence at notes.md: line 1\n  A: x\n  B: y" (Diff.render f)
  | Diff.Same -> Alcotest.fail "expected divergence"

let suite =
  [
    Alcotest.test_case "optimal matrix: topo3 direct latencies" `Quick test_optimal_matrix_topo3;
    Alcotest.test_case "optimal matrix: Floyd-Warshall relays" `Quick test_optimal_matrix_relays;
    Alcotest.test_case "smoke blame parts tile every gap" `Slow test_smoke_blame_tiles;
    Alcotest.test_case "blame digest replays bit-for-bit" `Slow test_smoke_blame_deterministic;
    Alcotest.test_case "top-k ordering and rendering" `Slow test_top_k_and_render;
    Alcotest.test_case "blame tail is by gap rank, not identity" `Slow test_tail_by_position;
    Alcotest.test_case "blame.* counters tile the gap" `Slow test_fold_counters;
    Alcotest.test_case "gap recovery declines without a fault" `Slow test_gap_recovery_wired;
    Alcotest.test_case "diff: first differing line" `Quick test_diff_lines;
    Alcotest.test_case "diff: counter drift and absence" `Quick test_diff_counters;
    Alcotest.test_case "diff: series window localization" `Quick test_diff_series_csv;
    Alcotest.test_case "diff: journey and column localization" `Quick test_diff_journeys;
    Alcotest.test_case "diff: basename dispatch + render" `Quick test_diff_dispatch_and_render;
  ]
