(* Tests for labels, gears and the label sink. *)

let qtest = QCheck_alcotest.to_alcotest

(* arbitrary labels for property tests *)
let label_gen =
  QCheck.Gen.(
    let* ts = int_bound 1_000 in
    let* src_dc = int_bound 4 in
    let* src_gear = int_bound 3 in
    let* kind = int_bound 2 in
    return
      (match kind with
      | 0 -> Saturn.Label.update ~ts ~src_dc ~src_gear ~key:(ts mod 17)
      | 1 -> Saturn.Label.migration ~ts ~src_dc ~src_gear ~dest_dc:(ts mod 5)
      | _ -> Saturn.Label.epoch_change ~ts ~src_dc ~epoch:(ts mod 3)))

let arbitrary_label = QCheck.make ~print:(Format.asprintf "%a" Saturn.Label.pp) label_gen

let test_label_compare_rule () =
  let a = Saturn.Label.update ~ts:10 ~src_dc:1 ~src_gear:0 ~key:5 in
  let b = Saturn.Label.update ~ts:11 ~src_dc:0 ~src_gear:0 ~key:5 in
  Alcotest.(check bool) "ts dominates" true (Saturn.Label.compare a b < 0);
  let c = Saturn.Label.update ~ts:10 ~src_dc:2 ~src_gear:0 ~key:5 in
  Alcotest.(check bool) "src breaks ts ties" true (Saturn.Label.compare a c < 0);
  let d = Saturn.Label.update ~ts:10 ~src_dc:1 ~src_gear:1 ~key:5 in
  Alcotest.(check bool) "gear breaks src ties" true (Saturn.Label.compare a d < 0);
  Alcotest.(check bool) "reflexive equal" true (Saturn.Label.equal a a)

let test_epoch_marker_sorts_last () =
  (* §6.2: the epoch-change marker must be the last label its origin pushes
     through the old tree, so at an equal timestamp it has to sort after
     every same-origin data label — pinned here so the gear tie-break
     cannot silently regress *)
  let ts = 10 and src_dc = 1 in
  let m = Saturn.Label.epoch_change ~ts ~src_dc ~epoch:2 in
  Alcotest.(check int) "marker gear is the 20-bit max" 0xFFFFF Saturn.Label.marker_gear;
  List.iter
    (fun src_gear ->
      let u = Saturn.Label.update ~ts ~src_dc ~src_gear ~key:3 in
      let g = Saturn.Label.migration ~ts ~src_dc ~src_gear ~dest_dc:2 in
      Alcotest.(check bool)
        (Printf.sprintf "same-ts update (gear %d) before marker" src_gear)
        true
        (Saturn.Label.compare u m < 0 && Saturn.Label.compare_ts_src u m < 0);
      Alcotest.(check bool)
        (Printf.sprintf "same-ts migration (gear %d) before marker" src_gear)
        true
        (Saturn.Label.compare g m < 0))
    [ 0; 1; Saturn.Label.marker_gear - 1 ];
  (* the tie-break never overrides the timestamp order *)
  let later = Saturn.Label.update ~ts:(ts + 1) ~src_dc ~src_gear:0 ~key:3 in
  Alcotest.(check bool) "later ts still after the marker" true (Saturn.Label.compare m later < 0)

let test_label_kind_predicates () =
  let u = Saturn.Label.update ~ts:1 ~src_dc:0 ~src_gear:0 ~key:0 in
  let m = Saturn.Label.migration ~ts:1 ~src_dc:0 ~src_gear:0 ~dest_dc:1 in
  let e = Saturn.Label.epoch_change ~ts:1 ~src_dc:0 ~epoch:1 in
  Alcotest.(check bool) "update" true (Saturn.Label.is_update u);
  Alcotest.(check bool) "migration" true (Saturn.Label.is_migration m);
  Alcotest.(check bool) "epoch is neither" false
    (Saturn.Label.is_update e || Saturn.Label.is_migration e)

let prop_compare_total_order =
  QCheck.Test.make ~name:"label compare is a total order" ~count:300
    QCheck.(triple arbitrary_label arbitrary_label arbitrary_label)
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Saturn.Label.compare a b) = -sgn (Saturn.Label.compare b a)
      (* transitivity on a sorted triple *)
      && begin
           let sorted = List.sort Saturn.Label.compare [ a; b; c ] in
           match sorted with
           | [ x; y; z ] ->
             Saturn.Label.compare x y <= 0 && Saturn.Label.compare y z <= 0
             && Saturn.Label.compare x z <= 0
           | _ -> false
         end)

let prop_ts_src_consistent =
  QCheck.Test.make ~name:"compare refines the paper's (ts,src) rule" ~count:300
    QCheck.(pair arbitrary_label arbitrary_label)
    (fun (a, b) ->
      match Saturn.Label.compare_ts_src a b with
      | 0 -> true (* same gear+ts: full compare may order by target *)
      | c -> compare (Saturn.Label.compare a b) 0 = compare c 0)

(* ---- gears ---------------------------------------------------------------- *)

let test_gear_monotonic_and_dominating () =
  let e = Sim.Engine.create () in
  let clock = Sim.Clock.create e in
  let g = Saturn.Gear.create clock ~dc:2 ~gear_id:1 in
  let t1 = Saturn.Gear.generate_ts g ~client_ts:Sim.Time.zero in
  let t2 = Saturn.Gear.generate_ts g ~client_ts:Sim.Time.zero in
  Alcotest.(check bool) "strictly increasing" true (Sim.Time.compare t2 t1 > 0);
  (* a client label from the future pushes the gear forward *)
  let t3 = Saturn.Gear.generate_ts g ~client_ts:(Sim.Time.of_ms 50) in
  Alcotest.(check bool) "dominates client ts" true (Sim.Time.compare t3 (Sim.Time.of_ms 50) > 0);
  let t4 = Saturn.Gear.generate_ts g ~client_ts:Sim.Time.zero in
  Alcotest.(check bool) "stays past the bump" true (Sim.Time.compare t4 t3 > 0);
  Alcotest.(check int) "issued" 4 (Saturn.Gear.issued g);
  Alcotest.(check bool) "floor covers last ts" true
    (Sim.Time.compare (Saturn.Gear.floor g) t4 >= 0)

let prop_gear_respects_causality =
  QCheck.Test.make ~name:"gear timestamps exceed any observed label" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun client_ts_list ->
      let e = Sim.Engine.create () in
      let g = Saturn.Gear.create (Sim.Clock.create e) ~dc:0 ~gear_id:0 in
      List.for_all
        (fun client_ts ->
          let ts = Saturn.Gear.generate_ts g ~client_ts in
          Sim.Time.compare ts client_ts > 0)
        client_ts_list)

(* ---- sink ----------------------------------------------------------------- *)

let prop_gear_floor_monotone =
  QCheck.Test.make ~name:"gear floor never decreases" ~count:100
    QCheck.(list (int_bound 5_000))
    (fun client_ts_list ->
      let e = Sim.Engine.create () in
      let g = Saturn.Gear.create (Sim.Clock.create e) ~dc:0 ~gear_id:0 in
      let ok = ref true in
      let last_floor = ref Sim.Time.zero in
      List.iter
        (fun client_ts ->
          ignore (Saturn.Gear.generate_ts g ~client_ts);
          let f = Saturn.Gear.floor g in
          if Sim.Time.compare f !last_floor < 0 then ok := false;
          last_floor := f)
        client_ts_list;
      !ok)

let test_sink_stop () =
  let e = Sim.Engine.create () in
  let gears = [| Saturn.Gear.create (Sim.Clock.create e) ~dc:0 ~gear_id:0 |] in
  let emitted = ref 0 in
  let sink =
    Saturn.Sink.create e ~observer:(Stats.Observer.create ()) ~gears ~period:(Sim.Time.of_ms 1)
      ~emit:(fun _ -> incr emitted) ()
  in
  Saturn.Sink.stop sink;
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () ->
      let ts = Saturn.Gear.generate_ts gears.(0) ~client_ts:Sim.Time.zero in
      Saturn.Sink.offer sink (Saturn.Label.update ~ts ~src_dc:0 ~src_gear:0 ~key:1));
  Sim.Engine.run e;
  Alcotest.(check int) "no periodic emission after stop" 0 !emitted;
  (* explicit flush still drains *)
  Saturn.Sink.flush sink;
  Alcotest.(check int) "manual flush works" 1 !emitted

let test_sink_orders_by_ts () =
  let e = Sim.Engine.create () in
  let clock = Sim.Clock.create e in
  let gears = Array.init 2 (fun gear_id -> Saturn.Gear.create clock ~dc:0 ~gear_id) in
  let emitted = ref [] in
  let sink =
    Saturn.Sink.create e ~observer:(Stats.Observer.create ()) ~gears ~period:(Sim.Time.of_ms 1)
      ~emit:(fun l -> emitted := l :: !emitted)
      ()
  in
  (* offer out of timestamp order *)
  let l1 = Saturn.Label.update ~ts:(Saturn.Gear.generate_ts gears.(0) ~client_ts:Sim.Time.zero) ~src_dc:0 ~src_gear:0 ~key:1 in
  let l2 = Saturn.Label.update ~ts:(Saturn.Gear.generate_ts gears.(1) ~client_ts:Sim.Time.zero) ~src_dc:0 ~src_gear:1 ~key:2 in
  Saturn.Sink.offer sink l2;
  Saturn.Sink.offer sink l1;
  Sim.Engine.run ~until:(Sim.Time.of_ms 5) e;
  Saturn.Sink.stop sink;
  Sim.Engine.run e;
  (match List.rev !emitted with
  | [ a; b ] ->
    Alcotest.(check bool) "ts order" true (Sim.Time.compare a.Saturn.Label.ts b.Saturn.Label.ts < 0)
  | out -> Alcotest.failf "expected 2 emissions, got %d" (List.length out));
  Alcotest.(check int) "emitted counter" 2 (Saturn.Sink.emitted sink)

let test_sink_holds_unstable_labels () =
  (* a gear with a skewed-slow clock must hold back the sink *)
  let e = Sim.Engine.create () in
  let fast = Saturn.Gear.create (Sim.Clock.create e) ~dc:0 ~gear_id:0 in
  let slow_clock = Sim.Clock.create e in
  Sim.Clock.bump slow_clock (Sim.Time.of_ms (-20));
  let slow = Saturn.Gear.create slow_clock ~dc:0 ~gear_id:1 in
  let emitted = ref 0 in
  let sink =
    Saturn.Sink.create e ~observer:(Stats.Observer.create ()) ~gears:[| fast; slow |]
      ~period:(Sim.Time.of_ms 1)
      ~emit:(fun _ -> incr emitted)
      ()
  in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () ->
      let ts = Saturn.Gear.generate_ts fast ~client_ts:Sim.Time.zero in
      Saturn.Sink.offer sink (Saturn.Label.update ~ts ~src_dc:0 ~src_gear:0 ~key:1));
  Sim.Engine.run ~until:(Sim.Time.of_ms 15) e;
  (* the slow gear could still mint ts < fast label's ts: label must wait *)
  Alcotest.(check int) "held while unstable" 0 !emitted;
  Alcotest.(check int) "buffered" 1 (Saturn.Sink.buffered sink);
  Sim.Engine.run ~until:(Sim.Time.of_ms 40) e;
  Alcotest.(check int) "released once stable" 1 !emitted;
  Saturn.Sink.stop sink;
  Sim.Engine.run e

let prop_sink_emits_sorted =
  QCheck.Test.make ~name:"sink emission is sorted by (ts,src)" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 3))
    (fun gear_choices ->
      let e = Sim.Engine.create () in
      let clock = Sim.Clock.create e in
      let gears = Array.init 4 (fun gear_id -> Saturn.Gear.create clock ~dc:0 ~gear_id) in
      let emitted = ref [] in
      let sink =
        Saturn.Sink.create e ~observer:(Stats.Observer.create ()) ~gears ~period:(Sim.Time.of_ms 1)
          ~emit:(fun l -> emitted := l :: !emitted)
          ()
      in
      List.iteri
        (fun i gear ->
          Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 137)) (fun () ->
              let ts = Saturn.Gear.generate_ts gears.(gear) ~client_ts:Sim.Time.zero in
              Saturn.Sink.offer sink (Saturn.Label.update ~ts ~src_dc:0 ~src_gear:gear ~key:i)))
        gear_choices;
      Sim.Engine.run ~until:(Sim.Time.of_ms 50) e;
      Saturn.Sink.stop sink;
      Sim.Engine.run e;
      let out = List.rev !emitted in
      List.length out = List.length gear_choices
      &&
      let rec sorted = function
        | a :: (b :: _ as rest) -> Saturn.Label.compare_ts_src a b <= 0 && sorted rest
        | _ -> true
      in
      sorted out)

let suite =
  [
    Alcotest.test_case "label comparability rule" `Quick test_label_compare_rule;
    Alcotest.test_case "epoch marker sorts after same-ts data labels" `Quick
      test_epoch_marker_sorts_last;
    Alcotest.test_case "label kind predicates" `Quick test_label_kind_predicates;
    qtest prop_compare_total_order;
    qtest prop_ts_src_consistent;
    Alcotest.test_case "gear monotonicity" `Quick test_gear_monotonic_and_dominating;
    qtest prop_gear_respects_causality;
    qtest prop_gear_floor_monotone;
    Alcotest.test_case "sink stop" `Quick test_sink_stop;
    Alcotest.test_case "sink reorders by timestamp" `Quick test_sink_orders_by_ts;
    Alcotest.test_case "sink waits for gear stability" `Quick test_sink_holds_unstable_labels;
    qtest prop_sink_emits_sorted;
  ]
