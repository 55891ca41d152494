(* Span pairing in the probe, per-label journey decomposition, the
   streaming JSONL sink, and the Chrome trace-event export. *)

let us = Sim.Time.of_us

(* ---- span pairing ---------------------------------------------------------- *)

let test_span_matching () =
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      (* two overlapping spans of different kinds, one nested pair of the
         same kind at different sites *)
      Sim.Span.begin_ ~at:(us 100) Sim.Span.Sk_chain ~origin:0 ~seq:1 ~aux:0 ~site:1
        ~peer:(-1) ~epoch:0;
      Sim.Span.begin_ ~at:(us 150) Sim.Span.Sk_hop ~origin:0 ~seq:1 ~aux:0 ~site:1 ~peer:2
        ~epoch:0;
      Sim.Span.end_ ~at:(us 300) Sim.Span.Sk_chain ~origin:0 ~seq:1 ~aux:0 ~site:1 ~peer:(-1)
        ~epoch:0;
      Sim.Span.begin_ ~at:(us 300) Sim.Span.Sk_chain ~origin:0 ~seq:1 ~aux:0 ~site:2 ~peer:(-1)
        ~epoch:0;
      Sim.Span.end_ ~at:(us 450) Sim.Span.Sk_hop ~origin:0 ~seq:1 ~aux:0 ~site:1 ~peer:2 ~epoch:0;
      Sim.Span.end_ ~at:(us 460) Sim.Span.Sk_chain ~origin:0 ~seq:1 ~aux:0 ~site:2 ~peer:(-1)
        ~epoch:0);
  Alcotest.(check (list (pair string int)))
    "totals"
    [ ("chain", 360); ("hop", 300) ]
    (Sim.Probe.span_totals_us probe);
  Alcotest.(check (list (pair string int)))
    "pair counts"
    [ ("chain", 2); ("hop", 1) ]
    (Sim.Probe.span_counts probe);
  Alcotest.(check int) "no orphans" 0 (Sim.Probe.span_orphans probe);
  Alcotest.(check int) "none open" 0 (Sim.Probe.open_span_count probe)

let test_duplicate_begin_first_wins () =
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Sim.Span.begin_ ~at:(us 100) Sim.Span.Sk_bulk ~origin:0 ~seq:7 ~aux:(-1) ~site:0 ~peer:1
        ~epoch:0;
      (* a duplicate begin (e.g. a retransmitted message) must not reset
         the span's start time *)
      Sim.Span.begin_ ~at:(us 200) Sim.Span.Sk_bulk ~origin:0 ~seq:7 ~aux:(-1) ~site:0 ~peer:1
        ~epoch:0;
      Sim.Span.end_ ~at:(us 300) Sim.Span.Sk_bulk ~origin:0 ~seq:7 ~aux:(-1) ~site:0 ~peer:1
        ~epoch:0);
  Alcotest.(check (list (pair string int))) "totals" [ ("bulk", 200) ]
    (Sim.Probe.span_totals_us probe)

let test_orphan_end () =
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Sim.Span.end_ ~at:(us 100) Sim.Span.Sk_proxy_order ~origin:1 ~seq:5 ~aux:0 ~site:2
        ~peer:(-1) ~epoch:0;
      Sim.Span.begin_ ~at:(us 200) Sim.Span.Sk_egress ~origin:1 ~seq:5 ~aux:0 ~site:0 ~peer:2
        ~epoch:0);
  Alcotest.(check int) "orphan counted" 1 (Sim.Probe.span_orphans probe);
  Alcotest.(check (list (pair string int))) "no time attributed" []
    (Sim.Probe.span_totals_us probe);
  Alcotest.(check int) "begin left open" 1 (Sim.Probe.open_span_count probe);
  (* both phases still count as probe events under one span.* kind *)
  Alcotest.(check (list (pair string int)))
    "event kinds"
    [ ("span.egress", 1); ("span.proxy_order", 1) ]
    (Sim.Probe.counts_by_kind probe)

(* The probe pairs spans in its own open-addressing table; a plain
   Hashtbl model must agree on every total, pair count, orphan count and
   open count. Keys come from a small space, so duplicate begins, orphan
   ends and re-opened keys are common, and runs long enough to grow the
   table several times and free slots in the middle of probe runs. *)
let prop_span_pairing_matches_model =
  let gen_op =
    QCheck.Gen.(
      map
        (fun ((is_begin, k), (origin, seq, site)) -> (is_begin, k, origin, seq, site))
        (pair (pair bool (int_bound 2)) (triple (int_bound 3) (int_bound 200) (int_range (-1) 2))))
  in
  QCheck.Test.make ~name:"span pairing matches a Hashtbl model" ~count:50
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 3000) gen_op))
    (fun ops ->
      let kinds = [| Sim.Span.Sk_chain; Sim.Span.Sk_hop; Sim.Span.Sk_stab |] in
      let names = [| "chain"; "hop"; "stab" |] in
      let probe = Sim.Probe.create ~keep:false () in
      let model = Hashtbl.create 64 in
      let us = Array.make 3 0 and n = Array.make 3 0 and orphans = ref 0 in
      Sim.Probe.with_probe probe (fun () ->
          List.iteri
            (fun t (is_begin, k, origin, seq, site) ->
              let key = (k, origin, seq, site) in
              let at = Sim.Time.of_us t in
              if is_begin then begin
                Sim.Span.begin_ ~at kinds.(k) ~origin ~seq ~aux:0 ~site ~peer:(-1) ~epoch:0;
                if not (Hashtbl.mem model key) then Hashtbl.replace model key t
              end
              else begin
                Sim.Span.end_ ~at kinds.(k) ~origin ~seq ~aux:0 ~site ~peer:(-1) ~epoch:0;
                match Hashtbl.find_opt model key with
                | Some t0 ->
                  Hashtbl.remove model key;
                  us.(k) <- us.(k) + (t - t0);
                  n.(k) <- n.(k) + 1
                | None -> incr orphans
              end)
            ops);
      let nonzero a =
        List.filter (fun (_, v) -> v <> 0) (List.init 3 (fun k -> (names.(k), a.(k))))
        |> List.sort compare
      in
      Sim.Probe.span_totals_us probe = nonzero us
      && Sim.Probe.span_counts probe = nonzero n
      && Sim.Probe.span_orphans probe = !orphans
      && Sim.Probe.open_span_count probe = Hashtbl.length model)

(* ---- streaming JSONL sink -------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let test_stream_jsonl () =
  let probe = Sim.Probe.create ~keep:false () in
  let path = Filename.temp_file "spans" ".jsonl" in
  let oc = open_out path in
  Sim.Probe.stream_jsonl probe oc;
  let evs =
    [
      (us 10, Probe_reference.Sink_emit { dc = 0; ts = 10 });
      (us 20, Probe_reference.Span_begin { Sim.Probe.sk = Sim.Probe.Sk_sink_hold; origin = 0;
                                           seq = 10; aux = 1; site = 0; peer = -1; epoch = 0 });
      (us 30, Probe_reference.Span_end { Sim.Probe.sk = Sim.Probe.Sk_sink_hold; origin = 0;
                                         seq = 10; aux = 1; site = 0; peer = -1; epoch = 0 });
    ]
  in
  Sim.Probe.with_probe probe (fun () ->
      List.iter (fun (at, e) -> Probe_reference.record ~at e) evs);
  close_out oc;
  Alcotest.(check (list string))
    "streamed lines match to_json"
    (List.map (fun (at, e) -> Probe_reference.to_json at e) evs)
    (read_lines path);
  Sys.remove path;
  (* span totals survive keep:false; the buffered export rightly does not *)
  Alcotest.(check (list (pair string int))) "totals on count-only probe" [ ("sink_hold", 10) ]
    (Sim.Probe.span_totals_us probe);
  Alcotest.check_raises "write_jsonl still refuses count-only probes"
    (Invalid_argument "Probe.write_jsonl: probe created with ~keep:false")
    (fun () -> Sim.Probe.write_jsonl probe stdout);
  Alcotest.check_raises "iter refuses count-only probes too"
    (Invalid_argument "Probe.iter_views: probe created with ~keep:false")
    (fun () -> Sim.Probe.iter_views probe (fun _ _ -> ()))

(* ---- smoke-run decomposition ----------------------------------------------- *)

(* one smoke run shared by the decomposition and Chrome tests *)
let smoke = lazy (Harness.Obs.smoke ())

let seg_stat report name =
  List.find
    (fun (s : Harness.Journey.seg_stat) -> Harness.Journey.segment_name s.segment = name)
    report.Harness.Journey.per_segment

let test_smoke_decomposition () =
  let r = Lazy.force smoke in
  let report = Harness.Journey.analyze r.Harness.Obs.probe in
  (match Harness.Journey.check report with
  | Ok () -> ()
  | Error ms ->
    Alcotest.failf "%d journeys fail to tile, e.g. %s" (List.length ms) (List.hd ms));
  Alcotest.(check bool) "journeys reconstructed" true (List.length report.Harness.Journey.journeys > 0);
  (* every journey's segments sum to its measured visibility latency *)
  List.iter
    (fun (j : Harness.Journey.journey) ->
      Alcotest.(check int)
        (Printf.sprintf "dc%d#%d->dc%d tiles" j.origin j.oseq j.dst)
        j.visibility_us j.total_us)
    report.Harness.Journey.journeys;
  (* the scenario's geography guarantees time in these segments *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " accrues time") true ((seg_stat report name).total_us > 0))
    [ "sink_hold"; "hop"; "delay_hop"; "delay_egress"; "proxy_order" ];
  (* the explicit chain forwards through serializers for every journey *)
  Alcotest.(check int) "every journey hops"
    (List.length report.Harness.Journey.journeys)
    (seg_stat report "hop").Harness.Journey.journeys

let test_table_deterministic () =
  let r = Lazy.force smoke in
  let render () = Stats.Table.render (Harness.Journey.table (Harness.Journey.analyze r.Harness.Obs.probe)) in
  Alcotest.(check string) "same trace renders identically" (render ()) (render ())

(* The journey fold subscribed during a run and Journey.analyze's replay
   of the kept trace must agree report for report *)
let same_report what (live : Harness.Journey.report) (replayed : Harness.Journey.report) =
  let open Harness.Journey in
  Alcotest.(check bool) (what ^ ": journeys") true (live.journeys = replayed.journeys);
  Alcotest.(check (pair int int)) (what ^ ": fallback, in flight")
    (replayed.fallback_applied, replayed.incomplete)
    (live.fallback_applied, live.incomplete);
  Alcotest.(check bool) (what ^ ": per_segment") true (live.per_segment = replayed.per_segment);
  Alcotest.(check (list string)) (what ^ ": mismatches") replayed.mismatches live.mismatches;
  Alcotest.(check string) (what ^ ": table")
    (Stats.Table.render (table replayed))
    (Stats.Table.render (table live))

let test_smoke_fold_equals_replay () =
  let r = Lazy.force smoke in
  same_report "smoke" r.Harness.Obs.journeys (Harness.Journey.analyze r.Harness.Obs.probe)

(* the forced switch strands labels into the fallback path; re-record the
   row's kept trace into a fresh probe with the fold subscribed *)
let test_reconfig_fold_equals_replay () =
  let o = Harness.Fault_run.run_scenario ~scenario:"reconfig-forced" ~system:`Saturn () in
  let kept = o.Harness.Fault_run.probe in
  let live = Sim.Probe.create ~keep:false () in
  let fold = Harness.Journey.create () in
  Sim.Probe.subscribe live (Harness.Journey.step fold);
  Sim.Probe.with_probe live (fun () ->
      Sim.Probe.iter_views kept (fun at v -> Probe_reference.record ~at (Probe_reference.of_view v)));
  Alcotest.(check string) "re-recorded trace" (Sim.Probe.digest kept) (Sim.Probe.digest live);
  let replayed = Harness.Journey.analyze kept in
  Alcotest.(check bool) "fallback journeys" true (replayed.Harness.Journey.fallback_applied > 0);
  same_report "reconfig-forced" (Harness.Journey.report fold) replayed

(* ---- Chrome trace-event export --------------------------------------------- *)

(* a minimal JSON reader — just enough to validate the export without
   adding a JSON dependency *)
type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "bad JSON at byte %d: %s" !pos msg in
  let peek () = if !pos >= n then fail "eof" else s.[!pos] in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    incr pos
  in
  let lit word v =
    String.iter (fun c -> if peek () <> c then fail word; incr pos) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos; Buffer.contents b
      | '\\' ->
        incr pos;
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | c -> Buffer.add_char b c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          let k = parse_string () in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "object"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "array"
        in
        items []
    | '"' -> Str (parse_string ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr pos
      done;
      if !pos = start then fail "value";
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with Some v -> v | None -> Alcotest.failf "no %S member" name)
  | _ -> Alcotest.failf "not an object looking up %S" name

let to_str = function Str s -> s | _ -> Alcotest.fail "expected string"
let to_num = function Num f -> f | _ -> Alcotest.fail "expected number"
let to_arr = function Arr l -> l | _ -> Alcotest.fail "expected array"

let is_int f = Float.equal f (Float.round f)

let test_chrome_roundtrip () =
  let r = Lazy.force smoke in
  let path = Filename.temp_file "trace" ".chrome.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Harness.Chrome.write r.Harness.Obs.probe oc);
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let doc = parse_json raw in
  Alcotest.(check string) "display unit" "ms" (to_str (member "displayTimeUnit" doc));
  let events = to_arr (member "traceEvents" doc) in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* exactly one named track per site and per serializer *)
  let tracks =
    List.filter_map
      (fun e ->
        if to_str (member "ph" e) = "M" && to_str (member "name" e) = "thread_name" then
          Some
            ( int_of_float (to_num (member "pid" e)),
              int_of_float (to_num (member "tid" e)),
              to_str (member "name" (member "args" e)) )
        else None)
      events
  in
  Alcotest.(check (list (triple int int string)))
    "one track per site and serializer"
    [ (1, 0, "dc0"); (1, 1, "dc1"); (1, 2, "dc2"); (2, 0, "ser0"); (2, 1, "ser1"); (2, 2, "ser2") ]
    (List.sort compare tracks);
  (* complete events carry integral µs timestamps and non-negative durations *)
  let xs = List.filter (fun e -> to_str (member "ph" e) = "X") events in
  Alcotest.(check bool) "has span slices" true (List.length xs > 0);
  List.iter
    (fun e ->
      let ts = to_num (member "ts" e) and dur = to_num (member "dur" e) in
      if not (is_int ts && is_int dur && dur >= 0. && ts >= 0.) then
        Alcotest.failf "bad X event ts=%f dur=%f" ts dur)
    xs;
  (* every span kind that accrued time in the run appears as a slice *)
  let slice_names = List.sort_uniq compare (List.map (fun e -> to_str (member "name" e)) xs) in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) (k ^ " sliced") true (List.mem k slice_names))
    (Sim.Probe.span_totals_us r.Harness.Obs.probe)

(* ---- decomposition under faults -------------------------------------------- *)

(* the shared 3-DC chain deployment under a fault plan; returns the probe *)
let run_faulted ~seed ~plan_of =
  let spec = { (Harness.Build.three_site Harness.Build.chain_config) with serializer_replicas = 2 } in
  let { Harness.Build.topo; dc_sites; rmap; _ } = spec in
  let n_keys = Kvstore.Replica_map.n_keys rmap in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let probe = Sim.Probe.create () in
  let freg = Faults.Registry.create () in
  let metrics = Harness.Metrics.create ~registry engine ~topo ~dc_sites in
  Sim.Probe.with_probe probe (fun () ->
      let api, _system = Harness.Build.saturn ~registry ~faults:freg engine spec metrics in
      let plan = plan_of freg in
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
           ~cooldown:(Sim.Time.of_ms 300)));
  probe

let check_report probe =
  let report = Harness.Journey.analyze probe in
  (match Harness.Journey.check report with
  | Ok () -> ()
  | Error ms ->
    Alcotest.failf "%d journeys fail to tile under faults, e.g. %s" (List.length ms) (List.hd ms));
  report

(* a transient metadata-tree partition: labels crossing the cut are dropped
   and retransmitted, so spans stretch across the outage — they must still
   tile exactly for every stream-ordered journey *)
let test_decomposition_across_link_cut () =
  let probe =
    run_faulted ~seed:11 ~plan_of:(fun freg ->
        let metadata (name, _) =
          String.length name >= 5
          && (String.sub name 0 5 = "tree." || String.sub name 0 7 = "attach.")
        in
        let cut = List.filter metadata (Faults.Registry.links_crossing freg ~side:[ 2 ]) in
        Alcotest.(check bool) "plan cuts something" true (cut <> []);
        Faults.Plan.make
          (List.concat_map
             (fun (name, _) ->
               [
                 { Faults.Plan.at = Sim.Time.of_ms 250; action = Faults.Plan.Cut name };
                 { Faults.Plan.at = Sim.Time.of_ms 400; action = Faults.Plan.Heal name };
               ])
             cut))
  in
  let report = check_report probe in
  Alcotest.(check bool) "journeys survive the cut" true
    (List.length report.Harness.Journey.journeys > 0)

let prop_decomposition_sums_under_random_plans =
  QCheck.Test.make ~name:"decomposition tiles visibility latency under random survivable plans"
    ~count:3
    QCheck.(int_bound 1000)
    (fun seed ->
      let probe =
        run_faulted ~seed ~plan_of:(fun freg ->
            Faults.Plan.random ~seed
              ~link_names:(Faults.Registry.link_names freg)
              ~serializer_names:(Faults.Registry.serializer_names freg)
              ~clock_names:(Faults.Registry.clock_names freg)
              ~max_replica_crashes:1 ~horizon:(Sim.Time.of_ms 500) ())
      in
      let report = Harness.Journey.analyze probe in
      (match Harness.Journey.check report with
      | Ok () -> ()
      | Error ms ->
        QCheck.Test.fail_reportf "seed %d: %d tiling violations, e.g. %s" seed (List.length ms)
          (List.hd ms));
      List.length report.Harness.Journey.journeys
      + report.Harness.Journey.fallback_applied + report.Harness.Journey.incomplete
      > 0)

let suite =
  [
    Alcotest.test_case "span matching and totals" `Quick test_span_matching;
    Alcotest.test_case "duplicate begin keeps first" `Quick test_duplicate_begin_first_wins;
    Alcotest.test_case "orphaned span end" `Quick test_orphan_end;
    QCheck_alcotest.to_alcotest prop_span_pairing_matches_model;
    Alcotest.test_case "streaming JSONL sink" `Quick test_stream_jsonl;
    Alcotest.test_case "smoke decomposition tiles exactly" `Slow test_smoke_decomposition;
    Alcotest.test_case "decomposition table deterministic" `Slow test_table_deterministic;
    Alcotest.test_case "smoke: subscribed fold = replay" `Slow test_smoke_fold_equals_replay;
    Alcotest.test_case "reconfig-forced: subscribed fold = replay" `Slow
      test_reconfig_fold_equals_replay;
    Alcotest.test_case "Chrome export round-trips" `Slow test_chrome_roundtrip;
    Alcotest.test_case "decomposition across a link cut" `Slow test_decomposition_across_link_cut;
    QCheck_alcotest.to_alcotest prop_decomposition_sums_under_random_plans;
  ]
