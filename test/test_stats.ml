(* Tests for the statistics library. *)

let qtest = QCheck_alcotest.to_alcotest

let sample_of xs =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) xs;
  s

let test_sample_basic () =
  let s = sample_of [ 3.; 1.; 2. ] in
  Alcotest.(check int) "count" 3 (Stats.Sample.count s);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.Sample.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Sample.min_value s);
  Alcotest.(check (float 1e-9)) "max" 3. (Stats.Sample.max_value s);
  Alcotest.(check (float 1e-9)) "median" 2. (Stats.Sample.median s);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.Sample.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 3. (Stats.Sample.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 1.5 (Stats.Sample.percentile s 25.)

let test_sample_errors () =
  let s = Stats.Sample.create () in
  Alcotest.check_raises "empty percentile" (Invalid_argument "Sample.percentile: empty sample")
    (fun () -> ignore (Stats.Sample.percentile s 50.));
  Stats.Sample.add s 1.;
  Alcotest.check_raises "out of range" (Invalid_argument "Sample.percentile: p out of [0,100]")
    (fun () -> ignore (Stats.Sample.percentile s 101.))

let test_sample_stddev () =
  let s = sample_of [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13808993 (Stats.Sample.stddev s)

let test_sample_insert_after_sort () =
  let s = sample_of [ 5.; 1. ] in
  Alcotest.(check (float 1e-9)) "median before" 3. (Stats.Sample.median s);
  Stats.Sample.add s 10.;
  (* the sorted cache must be invalidated *)
  Alcotest.(check (float 1e-9)) "median after" 5. (Stats.Sample.median s)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = sample_of xs in
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let vals = List.map (Stats.Sample.percentile s) ps in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono vals)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is non-decreasing and ends at 1" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.))
    (fun xs ->
      let s = sample_of xs in
      let cdf = Stats.Sample.cdf s () in
      let rec mono = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) -> v1 <= v2 && f1 <= f2 && mono rest
        | _ -> true
      in
      mono cdf && snd (List.nth cdf (List.length cdf - 1)) = 1.)

let test_meta_bytes_tiling () =
  (* the attached counter must tile the per-op totals: every recorded op
     contributes bytes x fanout, so the headline bytes-per-op figure is
     consistent with the counter breakdown *)
  let registry = Stats.Registry.create () in
  let m = Stats.Meta_bytes.create registry ~system:"testsys" in
  let ops = [ (12, 2); (12, 1); (0, 2); (24, 3); (17, 1) ] in
  List.iter (fun (bytes, fanout) -> Stats.Meta_bytes.record_op m ~bytes ~fanout) ops;
  let expected_attached = List.fold_left (fun a (b, f) -> a + (b * f)) 0 ops in
  Alcotest.(check int) "attached tiles the ops" expected_attached (Stats.Meta_bytes.attached_bytes m);
  Stats.Meta_bytes.record_stabilization m ~bytes:40;
  Stats.Meta_bytes.record_heartbeat m ~bytes:12;
  Stats.Meta_bytes.record_heartbeat m ~bytes:12;
  Alcotest.(check int) "total = attached + stabilization + heartbeat"
    (expected_attached + 40 + 24) (Stats.Meta_bytes.total_bytes m);
  (* the counters land in the registry under the shared grammar *)
  Alcotest.(check int) "registry counter view" expected_attached
    (Stats.Registry.counter_value (Stats.Registry.counter registry "meta.bytes.testsys.attached"));
  Alcotest.check_raises "negative bytes rejected"
    (Invalid_argument "Meta_bytes.record_op: negative bytes or fanout") (fun () ->
      Stats.Meta_bytes.record_op m ~bytes:(-1) ~fanout:1)

(* ---- Hdr: log-bucketed histogram ------------------------------------------ *)

let test_hdr_basics () =
  let h = Stats.Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Stats.Hdr.count h);
  Alcotest.(check int) "empty max" 0 (Stats.Hdr.max_value h);
  List.iter (Stats.Hdr.add h) [ 5; 1; 1000; 40_000; 3 ];
  Alcotest.(check int) "count" 5 (Stats.Hdr.count h);
  Alcotest.(check int) "max is exact" 40_000 (Stats.Hdr.max_value h);
  Alcotest.(check int) "min is exact" 1 (Stats.Hdr.min_value h);
  Alcotest.(check (float 1e-9)) "mean is exact (sum is kept raw)" 8201.8 (Stats.Hdr.mean h);
  (* values below 2^sub_bits land in unit buckets: percentiles are exact *)
  Alcotest.(check (float 1e-9)) "p0 exact in unit range" 1. (Stats.Hdr.percentile h 0.);
  Alcotest.(check (float 1e-9)) "top rank reports the exact max" 40_000.
    (Stats.Hdr.percentile h 100.);
  Stats.Hdr.add h (-3);
  Alcotest.(check int) "negatives counted apart" 1 (Stats.Hdr.negatives h);
  Alcotest.(check int) "negatives excluded from the distribution" 5 (Stats.Hdr.count h);
  Stats.Hdr.reset h;
  Alcotest.(check int) "reset clears count" 0 (Stats.Hdr.count h);
  Alcotest.(check int) "reset clears negatives" 0 (Stats.Hdr.negatives h);
  Alcotest.check_raises "sub_bits out of range rejected"
    (Invalid_argument "Hdr.create: sub_bits outside [0, 16]") (fun () ->
      ignore (Stats.Hdr.create ~sub_bits:17 ()))

let test_hdr_relative_error () =
  (* the contract the Series/Journey migration buys: every percentile's
     representative is within 2^-sub_bits (0.8% at the default) of some
     recorded value, at every magnitude *)
  let h = Stats.Hdr.create () in
  let values = List.init 400 (fun i -> 31 + (i * 997)) in
  List.iter (Stats.Hdr.add h) values;
  List.iter
    (fun p ->
      let v = Stats.Hdr.percentile h p in
      let nearest =
        List.fold_left
          (fun acc x ->
            if Float.abs (float_of_int x -. v) < Float.abs (float_of_int acc -. v) then x else acc)
          (List.hd values) values
      in
      let rel = Float.abs (v -. float_of_int nearest) /. float_of_int nearest in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f representative within 0.8%% (got %.4f)" p rel)
        true (rel < 0.008))
    [ 1.; 25.; 50.; 75.; 90.; 99.; 99.9 ]

let test_hdr_merge () =
  let a = Stats.Hdr.create () and b = Stats.Hdr.create () in
  List.iter (Stats.Hdr.add a) [ 10; 20 ];
  List.iter (Stats.Hdr.add b) [ 30_000; -1 ];
  let m = Stats.Hdr.merge a b in
  Alcotest.(check int) "merged count" 3 (Stats.Hdr.count m);
  Alcotest.(check int) "merged negatives" 1 (Stats.Hdr.negatives m);
  Alcotest.(check int) "merged max" 30_000 (Stats.Hdr.max_value m);
  Alcotest.(check int) "merged min" 10 (Stats.Hdr.min_value m);
  (* fresh result: resetting an input leaves the merge intact *)
  Stats.Hdr.reset a;
  Alcotest.(check int) "merge survives input reset" 3 (Stats.Hdr.count m);
  Alcotest.check_raises "geometry mismatch rejected"
    (Invalid_argument "Hdr.merge: geometry mismatch") (fun () ->
      ignore (Stats.Hdr.merge (Stats.Hdr.create ~sub_bits:4 ()) (Stats.Hdr.create ())))

let prop_hdr_percentile_in_range =
  QCheck.Test.make ~name:"hdr percentile stays within [min, max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (int_bound 1_000_000)) (int_bound 100))
    (fun (xs, p) ->
      let p = float_of_int p in
      let h = Stats.Hdr.create () in
      List.iter (Stats.Hdr.add h) xs;
      let v = Stats.Hdr.percentile h p in
      v >= float_of_int (Stats.Hdr.min_value h) && v <= float_of_int (Stats.Hdr.max_value h))

(* The sample's sort is a monomorphic heap sort; it must order exactly as
   the polymorphic [Array.sort Float.compare] did, duplicates, single
   elements, already sorted and reversed runs included. Values come from
   a small pool half the time so that ties are common. *)
let prop_sort_floats_matches_array_sort =
  let pool = [ 0.; 1.; 1.; 2.5; -3.; 7.25; 1e9; -0.; nan; infinity; neg_infinity ] in
  let value = QCheck.Gen.(oneof [ oneofl pool; float ]) in
  let arb =
    QCheck.make
      ~print:QCheck.Print.(pair (list float) int)
      QCheck.Gen.(pair (list_size (0 -- 60) value) (0 -- 2))
  in
  QCheck.Test.make ~name:"sort_floats orders as Array.sort Float.compare" ~count:500 arb
    (fun (xs, shape) ->
      let a = Array.of_list xs in
      (* 0: as drawn, 1: already sorted, 2: reversed *)
      if shape > 0 then Array.sort Float.compare a;
      if shape = 2 then begin
        let n = Array.length a in
        for i = 0 to (n / 2) - 1 do
          let x = a.(i) in
          a.(i) <- a.(n - 1 - i);
          a.(n - 1 - i) <- x
        done
      end;
      let want = Array.copy a in
      Array.sort Float.compare want;
      Stats.Sample.sort_floats a;
      Array.for_all2 Float.equal want a)

(* words allocated by [f ()], minor and direct-to-major. Minor words from
   Gc.minor_words, which is exact; major words from Gc.counters, since
   quick_stat's major count lags a direct major allocation *)
let allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The first percentile query of a sample sorts it: it pays for the one
   sorted copy (n + 1 words) and a constant (4 words: the cached option
   and the boxed result), not for boxing the floats it compares (about 95
   words per sample under Array.sort Float.compare) *)
let test_percentile_allocates_only_the_copy () =
  let n = 20_000 in
  let s = Stats.Sample.create () in
  for i = 0 to n - 1 do
    Stats.Sample.add s (float_of_int ((i * 7919) mod n))
  done;
  let p99 = ref 0. in
  let words = allocated (fun () -> p99 := Stats.Sample.percentile s 99.) in
  Alcotest.(check (float 1e-9)) "p99" 19_799.01 !p99;
  let beyond = words -. float_of_int (n + 1) in
  if beyond > 16. then
    Alcotest.failf "percentile allocated %.0f words beyond its sorted copy" beyond

let test_table_render () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "x"; "1" ];
  Stats.Table.add_row t [ "longer"; "2" ];
  let out = Stats.Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && String.sub out 0 7 = "== demo");
  (* rows render in insertion order *)
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 6 (List.length lines);
  Alcotest.(check bool) "x row before longer row" true
    (String.length (List.nth lines 3) >= 1 && (List.nth lines 3).[0] = 'x')

(* The int adders make their float inside the module: a float passed or
   returned across modules is boxed. They record what the float adders
   would, bit for bit, and allocate nothing; so does the per-update
   metadata accounting. *)
let test_int_adders () =
  let s = Stats.Sample.create () and s' = Stats.Sample.create () in
  let m = Stats.Meta_bytes.create (Stats.Registry.create ()) ~system:"testsys" in
  let xs = [ 0; 1; 999; 1_001; 123_457; 3_000_000 ] in
  List.iter
    (fun us ->
      Stats.Sample.add_us s us;
      Stats.Sample.add s' (Sim.Time.to_ms_float (Sim.Time.of_us us)))
    xs;
  Alcotest.(check (array (float 0.))) "sample values" (Stats.Sample.values s') (Stats.Sample.values s);
  Alcotest.(check (float 0.)) "sample total" (Stats.Sample.total s') (Stats.Sample.total s);
  let words =
    Helpers.allocated (fun () ->
        for i = 1 to 50 do
          Stats.Sample.add_us s i;
          Stats.Meta_bytes.record_op m ~bytes:i ~fanout:2
        done)
  in
  Alcotest.(check (float 0.)) "int adders allocate nothing" 0. words;
  Alcotest.(check int) "meta bytes recorded" (2 * 50 * 51 / 2) (Stats.Meta_bytes.attached_bytes m)

let suite =
  [
    Alcotest.test_case "int adders: bit-identical, allocation-free" `Quick test_int_adders;
    Alcotest.test_case "sample basics" `Quick test_sample_basic;
    Alcotest.test_case "sample error cases" `Quick test_sample_errors;
    Alcotest.test_case "sample stddev" `Quick test_sample_stddev;
    Alcotest.test_case "sorted cache invalidation" `Quick test_sample_insert_after_sort;
    qtest prop_percentile_monotone;
    qtest prop_cdf_monotone;
    qtest prop_sort_floats_matches_array_sort;
    Alcotest.test_case "percentile allocates only the sorted copy" `Quick
      test_percentile_allocates_only_the_copy;
    Alcotest.test_case "hdr basics, negatives and reset" `Quick test_hdr_basics;
    Alcotest.test_case "hdr constant relative error" `Quick test_hdr_relative_error;
    Alcotest.test_case "hdr merge" `Quick test_hdr_merge;
    qtest prop_hdr_percentile_in_range;
    Alcotest.test_case "meta-bytes accounting tiles per-op total" `Quick test_meta_bytes_tiling;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]
