(* The gate's comparison step and the file-level checks it is built from,
   over synthetic manifests in temp dirs: no scenario runs here. *)

open Harness

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let temp_dir prefix =
  let d = Filename.temp_dir prefix "" in
  at_exit (fun () -> if Sys.file_exists d then rm_rf d);
  d

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let has_finding name ~all findings =
  if not (List.exists (fun f -> List.for_all (fun sub -> contains ~sub f) all) findings) then
    Alcotest.failf "%s: no finding mentions %s in [%s]" name (String.concat " + " all)
      (String.concat " | " findings)

(* ---- Diff.dirs ------------------------------------------------------------ *)

let test_dirs_recurse () =
  let a = temp_dir "gate-a" and b = temp_dir "gate-b" in
  List.iter
    (fun root ->
      write (Filename.concat root "top.txt") "same\n";
      write (Filename.concat root "sub/x.txt") "a\n")
    [ a; b ];
  Alcotest.(check int) "identical trees" 0 (List.length (Diff.dirs a b));
  write (Filename.concat b "sub/x.txt") "b\n";
  (match Diff.dirs a b with
  | [ f ] ->
    Alcotest.(check string) "nested file named by relative path" "sub/x.txt" f.Diff.file;
    Alcotest.(check string) "first line" "line 1" f.Diff.where;
    Alcotest.(check string) "A" "a" f.Diff.a;
    Alcotest.(check string) "B" "b" f.Diff.b
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  write (Filename.concat b "sub/x.txt") "a\n";
  write (Filename.concat b "extra/deep/y.txt") "y\n";
  match Diff.dirs a b with
  | [ f ] ->
    Alcotest.(check string) "one-sided directory is one finding" "extra" f.Diff.file;
    Alcotest.(check string) "kind" "missing" f.Diff.kind;
    Alcotest.(check string) "absent on A" "<absent>" f.Diff.a
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ---- Obs.check_counters ----------------------------------------------------- *)

let test_counters_malformed () =
  let run = "engine.events_processed 100\n" in
  (match Obs.check_counters ~baseline:"engine.events_processed abc\n" run with
  | [ f ] -> Alcotest.(check bool) "non-integer value" true (contains ~sub:"malformed baseline line" f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  match Obs.check_counters ~baseline:"# header\nengine.events_processed\n" run with
  | [ f ] -> Alcotest.(check bool) "no value at all" true (contains ~sub:"malformed baseline line" f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* The band is a ratio, the same on both sides: a run 30 % above its
   baseline and one 23 % below (the baseline 30 % above the run) both
   fail; 20 % either way passes. *)
let test_counters_symmetric () =
  let run = "blame.journeys 7811\n" in
  let check baseline =
    Obs.check_counters ~baseline:(Printf.sprintf "blame.journeys %d\n" baseline) run
  in
  List.iter
    (fun baseline ->
      match check baseline with
      | [ f ] ->
        Alcotest.(check bool)
          (Printf.sprintf "baseline %d fails" baseline)
          true
          (contains ~sub:"counter blame.journeys drifted" f)
      | fs -> Alcotest.failf "baseline %d: expected one finding, got %d" baseline (List.length fs))
    [ 6008; 10154 ];
  List.iter
    (fun baseline ->
      Alcotest.(check (list string)) (Printf.sprintf "baseline %d passes" baseline) [] (check baseline))
    [ 6249; 9373 ];
  (* and with the sides swapped: the run 20 % above or below its baseline *)
  List.iter
    (fun got ->
      Alcotest.(check (list string))
        (Printf.sprintf "run %d passes" got)
        []
        (Obs.check_counters ~baseline:"blame.journeys 1000\n"
           (Printf.sprintf "blame.journeys %d\n" got)))
    [ 800; 1200 ]

(* ---- Gate.compare ------------------------------------------------------------ *)

let shootout_doc ~bytes_per_op =
  Printf.sprintf
    "{\"schema\":\"saturn-bench-shootout/1\",\"seed\":42,\"tiers\":[{\"tier\":\"eventual\",\"det\":{\"ops\":21343,\"meta_bytes_per_op\":0.000}},{\"tier\":\"saturn\",\"det\":{\"ops\":21261,\"meta_bytes_per_op\":%.3f}}]}\n"
    bytes_per_op

let manifest_files =
  [
    ("smoke/smoke-counters.txt", "# header\nengine.events_processed 1000\nprobe.link_send 200\n");
    ("faults/faults-digest.txt", "dfafdf9d8f23308dbe6b47f940f334a1\n");
    ( "faults/series-digest.txt",
      "series digest: 4b94cd6141400f73 (20 series x 73 windows)\n\
       series digest: 9837e932c8780a6f (20 series x 73 windows)\n\
       series digest: a964da3867755f45 (6 series x 73 windows)\n" );
    ( "faults/blame-digest.txt",
      "partition-saturn 1cb2b6b4e2a7a0d1 journeys 1200 fallback 3 incomplete 40\n\
       smoke 3d729bae6fdeee83 journeys 7811 fallback 0 incomplete 24\n" );
    ("plan/plan-default.txt", "weighted mismatch: 454.0 ms\n\nNV->NC  37  37  +0\n");
    ("smoke/BENCH_smoke.json", "{\"schema\":\"saturn-bench-smoke/1\",\"seed\":42,\"ops\":3000}\n");
    ("shootout/BENCH_shootout.json", shootout_doc ~bytes_per_op:28.37);
  ]

(* a repository root whose checked-in baselines equal a fresh manifest *)
let fixture () =
  let root = temp_dir "gate-root" and manifest = temp_dir "gate-manifest" in
  List.iter (fun (f, s) -> write (Filename.concat manifest f) s) manifest_files;
  Gate.write_baselines ~root ~manifest;
  (root, manifest)

let compare_after ~edit =
  let root, manifest = fixture () in
  edit (fun f s -> write (Filename.concat manifest f) s);
  Gate.compare ~root ~manifest

let test_write_then_compare () =
  let root, manifest = fixture () in
  Alcotest.(check (list string)) "--write then compare: no findings" [] (Gate.compare ~root ~manifest);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b.Gate.checked_in ^ " written") true
        (Sys.file_exists (Filename.concat root b.Gate.checked_in)))
    Gate.baselines

let test_counter_tolerance () =
  let counters n = Printf.sprintf "engine.events_processed %d\nprobe.link_send 200\n" n in
  Alcotest.(check (list string)) "20% drift passes" []
    (compare_after ~edit:(fun w -> w "smoke/smoke-counters.txt" (counters 1200)));
  has_finding "30% drift"
    ~all:[ "ci/smoke-counters.txt"; "counter engine.events_processed drifted" ]
    (compare_after ~edit:(fun w -> w "smoke/smoke-counters.txt" (counters 1300)));
  has_finding "missing counter"
    ~all:[ "ci/smoke-counters.txt"; "counter probe.link_send missing" ]
    (compare_after ~edit:(fun w -> w "smoke/smoke-counters.txt" "engine.events_processed 1000\n"))

let test_exact_baselines () =
  has_finding "faults digest" ~all:[ "ci/faults-digest.txt"; "line 1" ]
    (compare_after ~edit:(fun w -> w "faults/faults-digest.txt" "0000\n"));
  has_finding "series digest line 2" ~all:[ "ci/series-digest.txt"; "line 2"; "9837e932c8780a6f" ]
    (compare_after ~edit:(fun w ->
         w "faults/series-digest.txt"
           "series digest: 4b94cd6141400f73 (20 series x 73 windows)\n\
            series digest: 0000000000000000 (20 series x 73 windows)\n\
            series digest: a964da3867755f45 (6 series x 73 windows)\n"));
  has_finding "plan line" ~all:[ "ci/plan-default.txt"; "line 3"; "NV->NC" ]
    (compare_after ~edit:(fun w ->
         w "plan/plan-default.txt" "weighted mismatch: 454.0 ms\n\nNV->NC  38  37  +1\n"))

let test_shootout_row_metric () =
  has_finding "3% move" ~all:[ "BENCH_shootout.json"; "saturn: meta_bytes_per_op" ]
    (compare_after ~edit:(fun w -> w "shootout/BENCH_shootout.json" (shootout_doc ~bytes_per_op:29.22)));
  (* inside the 2% band the file must still be byte-identical *)
  has_finding "1% move" ~all:[ "BENCH_shootout.json"; "line 1" ]
    (compare_after ~edit:(fun w -> w "shootout/BENCH_shootout.json" (shootout_doc ~bytes_per_op:28.65)))

let test_missing_baseline () =
  let root, manifest = fixture () in
  Sys.remove (Filename.concat root "ci/plan-default.txt");
  Sys.remove (Filename.concat manifest "smoke/BENCH_smoke.json");
  let findings = Gate.compare ~root ~manifest in
  has_finding "checked-in side" ~all:[ "ci/plan-default.txt"; "missing" ] findings;
  has_finding "manifest side" ~all:[ "BENCH_smoke.json"; "missing from the manifest" ] findings;
  Alcotest.(check int) "every finding reported" 2 (List.length findings)

(* ---- zero-orphan check ------------------------------------------------------- *)

let test_orphan_named () =
  let clean = Sim.Probe.create () and planted = Sim.Probe.create () in
  Sim.Probe.with_probe clean (fun () ->
      Sim.Span.begin_ ~at:Sim.Time.zero Sim.Span.Sk_proxy_order ~origin:1 ~seq:10 ~aux:0 ~site:0
        ~peer:(-1) ~epoch:0;
      Sim.Span.end_ ~at:(Sim.Time.of_us 5) Sim.Span.Sk_proxy_order ~origin:1 ~seq:10 ~aux:0 ~site:0
        ~peer:(-1) ~epoch:0);
  (* an end whose begin was never emitted *)
  Sim.Probe.with_probe planted (fun () ->
      Sim.Span.end_ ~at:(Sim.Time.of_us 5) Sim.Span.Sk_proxy_order ~origin:2 ~seq:20 ~aux:0 ~site:0
        ~peer:(-1) ~epoch:0);
  let findings =
    Gate.orphan_findings [ ("smoke", clean); ("fault matrix partition/saturn", planted) ]
  in
  Alcotest.(check int) "one finding" 1 (List.length findings);
  has_finding "planted orphan" ~all:[ "fault matrix partition/saturn"; "1 span end" ] findings;
  Alcotest.(check (list string)) "a clean probe passes" [] (Gate.orphan_findings [ ("smoke", clean) ])

(* ---- tiling findings ---------------------------------------------------------- *)

(* Blame's mismatches already carry Journey's: one broken journey is one
   finding, not one per report *)
let test_tiling_reported_once () =
  let journeys =
    {
      Journey.journeys = [];
      fallback_applied = 0;
      incomplete = 0;
      mismatches = [ "dc0#1 -> dc1: segments sum 10us, visibility 11us" ];
      per_segment = [];
    }
  in
  let findings = Gate.tiling_findings "smoke" (Blame.analyze ~optimal:[||] journeys) in
  Alcotest.(check int) "one finding" 1 (List.length findings);
  has_finding "the mismatch" ~all:[ "smoke"; "dc0#1 -> dc1: segments sum 10us" ] findings;
  Alcotest.(check (list string)) "a clean report passes" []
    (Gate.tiling_findings "smoke" (Blame.analyze ~optimal:[||] { journeys with mismatches = [] }))

let suite =
  [
    Alcotest.test_case "diff: directories recurse" `Quick test_dirs_recurse;
    Alcotest.test_case "counters: malformed baseline lines" `Quick test_counters_malformed;
    Alcotest.test_case "gate: write then compare is clean" `Quick test_write_then_compare;
    Alcotest.test_case "gate: counter tolerance and missing counter" `Quick test_counter_tolerance;
    Alcotest.test_case "gate: counter band is symmetric" `Quick test_counters_symmetric;
    Alcotest.test_case "gate: byte-identical baselines named by line" `Quick test_exact_baselines;
    Alcotest.test_case "gate: shootout drift named by row and metric" `Quick test_shootout_row_metric;
    Alcotest.test_case "gate: missing baseline files" `Quick test_missing_baseline;
    Alcotest.test_case "gate: a planted orphan span end is named" `Quick test_orphan_named;
    Alcotest.test_case "gate: a tiling mismatch is one finding" `Quick test_tiling_reported_once;
  ]
