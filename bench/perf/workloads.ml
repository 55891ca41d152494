(* The benchmark's four workloads: how each is set up, what one measured
   sweep runs, and the metrics read off it.

   Every workload is closed-loop with zero think time (Harness.Driver). A
   run repeats a deterministic sweep, each in a fresh process that sets the
   workload up itself (perf.ml), and every simulated-time metric must come
   out identical on every sweep. Three modes run the same sweep: [Plain]
   with nothing extra installed (the end-to-end numbers), [Spans] with host
   spans around the calls into each layer (pass 1 of the traced run), and
   [Counted] with a count-only probe and windowed series handed to Build.*
   (pass 2). *)

open Harness

type mode = Plain | Spans of Hostspan.t | Counted

type sweep = {
  wall_s : float;  (** host time of the measured phase, reference checkpoints included *)
  slices : float array;
      (** the measured phase cut into consecutive pieces of deterministic
          work, host seconds each: blocks of [slice_ops] operations
          (ec2-7dc, scale), or rows (faults-matrix, shootout-8). A slice
          does the same work in every sweep of a seed. *)
  slice_refs : float array;  (** the reference timed on the two sides of each slice (Calib) *)
  words : float;  (** words allocated by the measured phase *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  ops : int;  (** in-window completed operations, over every row *)
  issued : int;
      (** operations started; the library-composed workloads expose only
          their in-window completions, which stand in *)
  failed : int;
      (** operations started in the measured window that never completed,
          or invariant violations (faults-matrix) *)
  empty_rows : string list;  (** rows that completed no operation *)
  det : (string * float) list;  (** simulated-time end-to-end metrics *)
  vis_n : int;  (** visibility samples behind them; 0 where a library call hides them *)
  layers : (string * float) list;  (** per-layer values this sweep exposes *)
  check : (string, string) result;  (** a workload-specific output check *)
}

(* what [stage] hands back: the deployment is built, the measured phase
   has not started *)
type staged = { build_s : float; run : unit -> sweep }

type prepared = {
  stage : mode -> staged;
  setup_layers : (string * float) list;
  digest : string;  (** fingerprint of the generated inputs; "" when none *)
}

type t = {
  name : string;
  prepare : seed:int -> Hostspan.t option -> prepared;
}

(* ---- shared measurement helpers ------------------------------------------ *)

(* words allocated so far: Gc.minor_words () is exact, while quick_stat's
   minor count moves only at collections; the major heap's own allocations
   (major net of promotions) come from quick_stat, which books them a slice
   at a time, so two identical sweeps can differ by a few hundredths of a
   percent *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let tracer_of = function Spans tr -> Some tr | Plain | Counted -> None

let timed tracer name f =
  let t0 = Hostspan.now_ns () in
  let x = match tracer with Some tr -> Hostspan.span tr name f | None -> f () in
  (x, Hostspan.seconds_since t0)

(* host time, allocation and collections of [f]; a full major collection
   first, so garbage from earlier work is not charged to it *)
let measured f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let w0 = words () in
  let t0 = Hostspan.now_ns () in
  let x = f () in
  let wall_s = Hostspan.seconds_since t0 in
  let w1 = words () in
  let g1 = Gc.quick_stat () in
  ( x,
    wall_s,
    w1 -. w0,
    g1.Gc.minor_collections - g0.Gc.minor_collections,
    g1.Gc.major_collections - g0.Gc.major_collections,
    g1.Gc.promoted_words -. g0.Gc.promoted_words )

(* times the reference between two slices (Calib); on the spans pass it
   is a span of its own, so the layer around it is not charged for it *)
let checkpoint tracer checkpoints =
  let c =
    match tracer with Some tr -> Hostspan.span tr "calib" Calib.checkpoint | None -> Calib.checkpoint ()
  in
  checkpoints := c :: !checkpoints

(* [f] over [rows], a slice per row: a checkpoint before every row and
   after the last *)
let row_slices tracer f rows =
  let checkpoints = ref [] in
  let results =
    List.map
      (fun row ->
        checkpoint tracer checkpoints;
        f row)
      rows
  in
  checkpoint tracer checkpoints;
  (results, Calib.slices (List.rev !checkpoints))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let per x n = if n = 0 then 0. else x /. float_of_int n
let assoc0 k l = match List.assoc_opt k l with Some v -> v | None -> 0

(* what a count-only probe saw, summed over every row of a sweep *)
type probe_sum = {
  counts : (string * int) list;
  span_us : (string * int) list;
  span_n : (string * int) list;
  events : int;
}

let no_probe = { counts = []; span_us = []; span_n = []; events = 0 }

let add_probe a b =
  let merge x y =
    List.fold_left
      (fun acc (k, v) -> (k, v + assoc0 k acc) :: List.remove_assoc k acc)
      x y
  in
  {
    counts = merge a.counts b.counts;
    span_us = merge a.span_us b.span_us;
    span_n = merge a.span_n b.span_n;
    events = a.events + b.events;
  }

let probe_sum p =
  {
    counts = Sim.Probe.counts_by_kind p;
    span_us = Sim.Probe.span_totals_us p;
    span_n = Sim.Probe.span_counts p;
    events = Sim.Probe.count p;
  }

(* the per-label and per-op ratios the probe's counts and span totals give *)
let probe_layers p ~ops =
  let c k = float_of_int (assoc0 k p.counts) in
  let us k = float_of_int (assoc0 k p.span_us) in
  let labels = assoc0 "label_forward" p.counts in
  [
    ("link.sends_per_op", per (c "link_send") ops);
    ("link.drops", c "link_drop");
    ("sink.hold_us_per_label", per (us "sink_hold") labels);
    ("serializer.chain_us_per_label", per (us "chain") labels);
    ("serializer.delay_us_per_label", per (us "delay_hop" +. us "delay_egress") labels);
    ("serializer.hops_per_label", per (c "serializer_hop") labels);
    ("proxy.order_us_per_apply", per (us "proxy_order") (assoc0 "proxy_apply" p.counts));
    ("bulk.transit_us_per_update", per (us "bulk") (assoc0 "bulk" p.span_n));
    ("stab.rounds_per_op", per (c "stab_round") ops);
    ("stab.hold_us_per_update", per (us "stab") (assoc0 "stab" p.span_n));
    ("obs.probe_events_per_op", per (float_of_int p.events) ops);
  ]

(* peak of each gauge family over a run's windowed series *)
let gauge_peaks series_list =
  let peak pred =
    List.fold_left
      (fun acc sr ->
        List.fold_left
          (fun acc name ->
            if Stats.Series.kind_of sr name = Some Stats.Series.Gauge && pred name then
              Array.fold_left Float.max acc (Stats.Series.primary sr name)
            else acc)
          acc (Stats.Series.names sr))
      0. series_list
  in
  let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let has_suffix x s =
    let n = String.length s and m = String.length x in
    n >= m && String.sub s (n - m) m = x
  in
  [
    ("link.in_flight_peak", peak (fun n -> has_prefix "series.link." n && has_suffix ".in_flight" n));
    ("sink.depth_peak", peak (fun n -> has_prefix "series.sink." n && has_suffix ".depth" n));
    ( "serializer.pending_peak",
      peak (fun n -> has_prefix "series.ser" n && has_suffix ".pending" n) );
    ("proxy.pending_peak", peak (has_prefix "series.pending.dc"));
  ]

let meta_layers registry ~ops =
  let sum suffix =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Stats.Registry.Counter n
          when String.length name > 11
               && String.sub name 0 11 = "meta.bytes."
               && Filename.extension name = "." ^ suffix ->
          acc + n
        | _ -> acc)
      0
      (Stats.Registry.snapshot registry)
  in
  let a = sum "attached" and s = sum "stabilization" and h = sum "heartbeat" in
  ( per (float_of_int (a + s + h)) ops,
    [
      ("meta.attached_bytes_per_op", per (float_of_int a) ops);
      ("meta.stabilization_bytes_per_op", per (float_of_int s) ops);
      ("meta.heartbeat_bytes_per_op", per (float_of_int h) ops);
    ] )

let percentile_ms sample p =
  if Stats.Sample.is_empty sample then 0. else Stats.Sample.percentile sample p

(* ---- closed-loop Saturn deployments: ec2-7dc and the scale tiers -------- *)

type horizon = { warmup : Sim.Time.t; measure : Sim.Time.t; cooldown : Sim.Time.t }

(* Api.t with every closure timed (host self time) and its continuation
   stamped (simulated time from call to continuation); [op_of] names the
   client op a call belongs to, and a deterministic 1-in-1024 of them keep
   full span records *)
let sampled (client, index) = (client + index) land 1023 = 0

let traced_api tr engine (api : Api.t) ~op_of =
  let stamp name =
    let id = Hostspan.intern tr ("api." ^ name) in
    let hist = Stats.Hdr.create () in
    let call c f =
      let t0 = Sim.Engine.now engine in
      let op = op_of c in
      let settle () = Stats.Hdr.add hist (Sim.Time.to_us (Sim.Time.sub (Sim.Engine.now engine) t0)) in
      Hostspan.enter tr ~keep:(sampled op) ~op id;
      f settle;
      Hostspan.leave tr id
    in
    (call, (name, hist))
  in
  let attach, h_attach = stamp "attach" in
  let read, h_read = stamp "read" in
  let update, h_update = stamp "update" in
  let migrate, h_migrate = stamp "migrate" in
  ( {
      api with
      Api.attach =
        (fun c ~dc ~k ->
          attach c (fun settle ->
              api.Api.attach c ~dc ~k:(fun () ->
                  settle ();
                  k ())));
      read =
        (fun c ~key ~k ->
          read c (fun settle ->
              api.Api.read c ~key ~k:(fun v ->
                  settle ();
                  k v)));
      update =
        (fun c ~key ~value ~k ->
          update c (fun settle ->
              api.Api.update c ~key ~value ~k:(fun () ->
                  settle ();
                  k ())));
      migrate =
        (fun c ~dest_dc ~k ->
          migrate c (fun settle ->
              api.Api.migrate c ~dest_dc ~k:(fun () ->
                  settle ();
                  k ())));
    },
    [ h_attach; h_read; h_update; h_migrate ] )

(* every [slice_ops]-th operation started closes a slice: the operation
   stream is a pure function of the seed, so slice k is the same
   simulated work in every sweep (about 90 ms of host time on ec2-7dc) *)
let slice_ops = 16384

type deployment = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  spec : Build.spec;
  per_dc : int;
  horizon : horizon;
  op_source : unit -> Client.t -> Workload.Op.t;  (** a fresh, seed-determined op stream *)
}

let stage_driven tracer d mode =
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let series = match mode with Counted -> Some (Stats.Series.create ()) | _ -> None in
  let probe = match mode with Counted -> Some (Sim.Probe.create ~keep:false ()) | _ -> None in
  let under_probe f = match probe with Some p -> Sim.Probe.with_probe p f | None -> f () in
  let metrics = Metrics.create ~registry engine ~topo:d.topo ~dc_sites:d.dc_sites in
  let (api, next, clients), build_s =
    timed None "" (fun () ->
        let api, _system =
          timed tracer "build" (fun () ->
              under_probe (fun () -> Build.saturn ~registry ?series engine d.spec metrics))
          |> fst
        in
        (api, d.op_source (), Driver.make_clients ~dc_sites:d.dc_sites ~per_dc:d.per_dc))
  in
  (* per client: operations started and when the latest started. The loop
     is closed, so a client has at most one operation outstanding *)
  let ledger = Hashtbl.create (List.length clients) in
  List.iter (fun (c : Client.t) -> Hashtbl.replace ledger c.Client.id (ref 0, ref 0)) clients;
  let checkpoints = ref [] and started_total = ref 0 in
  let mark () = checkpoint (tracer_of mode) checkpoints in
  let start (c : Client.t) =
    let started, last_us = Hashtbl.find ledger c.Client.id in
    incr started;
    incr started_total;
    if !started_total land (slice_ops - 1) = 0 then mark ();
    last_us := Sim.Time.to_us (Sim.Engine.now engine);
    !started
  in
  let op_of (c : Client.t) = (c.Client.id, !(fst (Hashtbl.find ledger c.Client.id))) in
  let remote = ref 0 and next_words = ref 0. in
  let api, api_hists, next_op =
    match mode with
    | Spans tr ->
      let api, hists = traced_api tr engine api ~op_of in
      let id = Hostspan.intern tr "workload.next" in
      let next_op (c : Client.t) =
        let index = start c in
        Hostspan.enter tr ~keep:(sampled (c.Client.id, index)) ~op:(c.Client.id, index) id;
        let w0 = Gc.minor_words () in
        let op = next c in
        let w1 = Gc.minor_words () in
        Hostspan.leave tr id;
        next_words := !next_words +. (w1 -. w0);
        (match op with Workload.Op.Remote_read _ -> incr remote | _ -> ());
        op
      in
      (api, hists, next_op)
    | Plain | Counted ->
      ( api,
        [],
        fun c ->
          ignore (start c : int);
          next c )
  in
  let run () =
    let h = d.horizon in
    let go () =
      mark ();
      let r =
        under_probe (fun () ->
            Driver.run engine api metrics ~clients ~next_op ~warmup:h.warmup ~measure:h.measure
              ~cooldown:h.cooldown)
      in
      mark ();
      r
    in
    let result, wall_s, words, minor_gcs, major_gcs, promoted =
      measured (fun () ->
          match mode with Spans tr -> Hostspan.span tr "driver.run" go | Plain | Counted -> go ())
    in
    Option.iter (fun sr -> Stats.Series.seal sr ~now:(Sim.Engine.now engine)) series;
    let ops = result.Driver.ops_completed in
    (* failed: a client whose attach never completed, or whose operation
       started inside the measured window and never completed; Driver.run
       stops the deployment after the cool-down, so an operation started
       during the cool-down may be cut off without failing *)
    let window_end_us = Sim.Time.to_us (Sim.Time.add h.warmup h.measure) in
    let issued, failed =
      List.fold_left
        (fun (issued, failed) (c : Client.t) ->
          let started, last_us = Hashtbl.find ledger c.Client.id in
          let lost = !started = 0 || (!started > c.Client.total && !last_us <= window_end_us) in
          (issued + !started, if lost then failed + 1 else failed))
        (0, 0) clients
    in
    let slices, slice_refs = Calib.slices (List.rev !checkpoints) in
    let vis = Metrics.visibility metrics in
    let meta_per_op, meta = meta_layers registry ~ops in
    let events = Sim.Engine.events_processed engine in
    let spans_layers =
      match mode with
      | Spans tr ->
        List.concat_map
          (fun (name, hist) ->
            let pct p = if Stats.Hdr.count hist = 0 then 0. else Stats.Hdr.percentile hist p /. 1e3 in
            [
              (Printf.sprintf "api.%s.calls" name, float_of_int (Hostspan.calls tr ("api." ^ name)));
              (Printf.sprintf "api.%s.self_ns" name, Hostspan.self_ns_per_call tr ("api." ^ name));
              (Printf.sprintf "api.%s.sim_p50_ms" name, pct 50.);
              (Printf.sprintf "api.%s.sim_p99_ms" name, pct 99.);
            ])
          api_hists
        @ [
            ("workload.next_ns", Hostspan.self_ns_per_call tr "workload.next");
            ("workload.next_words", per !next_words (Hostspan.calls tr "workload.next"));
            ("workload.remote_read_share", per (float_of_int !remote) issued);
            ("engine.self_ns_per_event", per (Hostspan.self_ns tr "driver.run") events);
          ]
      | Plain | Counted -> []
    in
    let counted_layers =
      match (probe, series) with
      | Some p, Some sr -> probe_layers (probe_sum p) ~ops @ gauge_peaks [ sr ]
      | _ -> []
    in
    {
      wall_s;
      slices;
      slice_refs;
      words;
      minor_gcs;
      major_gcs;
      promoted;
      ops;
      issued;
      failed;
      empty_rows = (if ops > 0 then [] else [ "run" ]);
      det =
        [
          ("sim_ops_per_s", result.Driver.throughput);
          ("vis_mean_ms", Stats.Sample.mean vis);
          ("vis_p99_ms", percentile_ms vis 99.);
          ("meta_bytes_per_op", meta_per_op);
        ];
      vis_n = Stats.Sample.count vis;
      layers =
        [
          ("engine.events", float_of_int events);
          ("engine.events_per_op", per (float_of_int events) ops);
        ]
        @ meta @ spans_layers @ counted_layers;
      check = Ok "";
    }
  in
  { build_s; run }

(* §7.3's default deployment: every EC2 region, the Algorithm-3 tree,
   exponential correlation, 90 % reads of 2 B values, 40 clients per DC.
   The deployment (replica map, tree) is Scenario.default_setup's own; the
   benchmark's seed drives the operation stream. One simulated second is
   measured, not the paper's longer window: wall_s takes each slice's
   fastest sweep, which steadies with the number of sweeps a run holds
   (README.md has the measurement). *)
let ec2_7dc ?(horizon = { warmup = Sim.Time.of_ms 400; measure = Sim.Time.of_sec 1.; cooldown = Sim.Time.of_ms 200 }) () =
  let prepare ~seed tracer =
    let setup = Scenario.default_setup in
    let dc_sites = Scenario.dc_sites setup in
    let topo = Sim.Ec2.topology in
    let rmap, rmap_s = timed tracer "kvstore.replica_map" (fun () -> Scenario.replica_map setup) in
    let config, solve_s = timed tracer "config.solve" (fun () -> Scenario.solved_config setup) in
    let spec =
      {
        (Build.default_spec ~topo ~dc_sites ~rmap) with
        Build.partitions = setup.Scenario.partitions;
        saturn_config = Some config;
      }
    in
    let op_source () =
      let syn =
        Workload.Synthetic.create
          {
            Workload.Synthetic.n_keys = setup.Scenario.n_keys;
            value_size = setup.Scenario.value_size;
            read_ratio = setup.Scenario.read_ratio;
            remote_read_ratio = setup.Scenario.remote_read_ratio;
            seed;
          }
          ~rmap ~topo ~dc_sites
      in
      fun (c : Client.t) -> Workload.Synthetic.next syn ~dc:c.Client.preferred_dc
    in
    let d = { topo; dc_sites; spec; per_dc = setup.Scenario.clients_per_dc; horizon; op_source } in
    {
      stage = stage_driven tracer d;
      setup_layers =
        [
          ("kvstore.replica_map_s", rmap_s);
          ("config.solve_s", solve_s);
          ("kvstore.keys", float_of_int (Kvstore.Replica_map.n_keys rmap));
          ("kvstore.mean_degree", Kvstore.Replica_map.mean_degree rmap);
        ];
      digest = "";
    }
  in
  { name = "ec2-7dc"; prepare }

(* Saturn on the three-site chain over a Workload.Scale social graph: each
   key at its master DC plus the next, the Scale.Ops social mix including
   remote reads, 256 clients per DC *)
let scale ?(tier = Workload.Scale.T250k)
    ?(horizon = { warmup = Sim.Time.of_ms 200; measure = Sim.Time.of_sec 4.; cooldown = Sim.Time.of_ms 200 }) () =
  let module Scale = Workload.Scale in
  let n_dcs = 3 in
  let prepare ~seed tracer =
    let w0 = words () in
    let g, gen_s = timed tracer "workload.gen" (fun () -> Scale.of_tier tier ~seed) in
    let gen_words = words () -. w0 in
    let rmap, rmap_s =
      timed tracer "kvstore.replica_map" (fun () ->
          Kvstore.Replica_map.create ~n_dcs ~n_keys:(Scale.Ops.n_keys g) ~assign:(fun key ->
              Scale.Ops.replicas g ~n_dcs ~key))
    in
    let topo = Build.topo3 () in
    let dc_sites = [| 0; 1; 2 |] in
    let spec =
      {
        (Build.default_spec ~topo ~dc_sites ~rmap) with
        Build.saturn_config = Some (Build.chain_config ~dc_sites);
        partitions = 2;
        frontends = 2;
      }
    in
    let op_source () =
      let ops = Scale.Ops.create g ~n_dcs ~value_size:128 ~seed:(seed + 2) in
      fun (c : Client.t) -> Scale.Ops.next ops ~dc:c.Client.preferred_dc
    in
    let d = { topo; dc_sites; spec; per_dc = 256; horizon; op_source } in
    {
      stage = stage_driven tracer d;
      setup_layers =
        [
          ("workload.gen_s", gen_s);
          ("workload.gen_words_per_edge", per gen_words (Scale.n_edges g));
          ("kvstore.replica_map_s", rmap_s);
          ("kvstore.keys", float_of_int (Kvstore.Replica_map.n_keys rmap));
          ("kvstore.mean_degree", Kvstore.Replica_map.mean_degree rmap);
        ];
      digest = Scale.digest g;
    }
  in
  { name = "scale-" ^ Scale.tier_name tier; prepare }

(* ---- library-composed workloads (faults-matrix, shootout-8) ---------------- *)

(* the rows of Fault_run.run_matrix, in its order *)
let fault_rows =
  [
    ("ser-crash", "saturn"); ("ser-crash", "eventual"); ("seq-crash", "eunomia");
    ("partition", "saturn"); ("partition", "eventual"); ("partition", "okapi");
    ("latency-spike", "saturn"); ("latency-spike", "eventual"); ("reconfig-graceful", "saturn");
    ("reconfig-cut", "saturn"); ("reconfig-forced", "saturn"); ("reconfig-backup", "saturn");
  ]

let fault_system = function
  | "saturn" -> `Saturn
  | "eventual" -> `Eventual
  | "eunomia" -> `Eunomia
  | "okapi" -> `Okapi
  | s -> invalid_arg ("faults-matrix: no fault system " ^ s)

(* Fault_run measures each row over one simulated second *)
let fault_row_window_s = 1.0

(* The matrix is run_matrix's rows, each through Fault_run.run_scenario,
   the same cell run_matrix runs, so that every row is timed on its own.
   (run_scenario repeats the fault-free pre-run that locates the busiest
   edge in its latency-spike and reconfig-backup rows, where run_matrix
   shares one.) Each outcome is summarised as its row ends and its kept
   trace dropped, so a sweep holds one row's trace at a time. *)
let faults_matrix =
  let prepare ~seed _tracer =
    let stage mode =
      let tracer = tracer_of mode in
      let run_row (scenario, system) =
        let o, _ =
          timed tracer
            (Printf.sprintf "row.%s-%s" scenario system)
            (fun () -> Fault_run.run_scenario ~seed ~scenario ~system:(fault_system system) ())
        in
        (* the spans pass re-times the checker over the row's kept trace *)
        let analyze_s =
          match tracer with
          | Some _ -> snd (timed tracer "checker.analyze" (fun () -> Faults.Checker.analyze o.Fault_run.probe))
          | None -> 0.
        in
        let probe = probe_sum o.Fault_run.probe in
        ({ o with Fault_run.probe = Sim.Probe.create () }, probe, analyze_s)
      in
      let run () =
        let (rows, (slices, slice_refs)), wall_s, words, minor_gcs, major_gcs, promoted =
          measured (fun () ->
              let go () = row_slices tracer run_row fault_rows in
              match tracer with Some tr -> Hostspan.span tr "faults.matrix" go | None -> go ())
        in
        let outcomes = List.map (fun (o, _, _) -> o) rows in
        let ops = List.fold_left (fun acc (o : Fault_run.outcome) -> acc + o.ops) 0 outcomes in
        let violations = Fault_run.violations outcomes in
        let probe = List.fold_left (fun acc (_, p, _) -> add_probe acc p) no_probe rows in
        let report f = List.fold_left (fun acc (o : Fault_run.outcome) -> acc + f o.report) 0 outcomes in
        let meta_rows =
          List.map (fun (o : Fault_run.outcome) -> meta_layers o.registry ~ops:o.ops) outcomes
        in
        let analyze =
          match tracer with
          | Some _ -> [ ("checker.analyze_s", List.fold_left (fun acc (_, _, a) -> acc +. a) 0. rows) ]
          | None -> []
        in
        let row_layers =
          List.concat_map
            (fun (o : Fault_run.outcome) ->
              let row = Printf.sprintf "row.%s-%s" o.scenario o.system in
              [ (row ^ ".recovery_ms", o.recovery_ms); (row ^ ".vis_p99_ms", o.vis_p99_ms) ])
            outcomes
        in
        let events = assoc0 "engine_step" probe.counts in
        {
          wall_s;
          slices;
          slice_refs;
          words;
          minor_gcs;
          major_gcs;
          promoted;
          ops;
          issued = ops;
          failed = violations;
          empty_rows =
            List.filter_map
              (fun (o : Fault_run.outcome) ->
                if o.ops > 0 then None else Some (o.scenario ^ "/" ^ o.system))
              outcomes;
          det =
            [
              ( "sim_ops_per_s",
                mean (List.map (fun (o : Fault_run.outcome) -> float_of_int o.ops /. fault_row_window_s) outcomes) );
              ("vis_mean_ms", mean (List.map (fun (o : Fault_run.outcome) -> o.vis_mean_ms) outcomes));
              ("vis_p99_ms", mean (List.map (fun (o : Fault_run.outcome) -> o.vis_p99_ms) outcomes));
              ("meta_bytes_per_op", mean (List.map fst meta_rows));
            ];
          vis_n = 0;
          layers =
            [
              ("engine.events", float_of_int events);
              ("engine.events_per_op", per (float_of_int events) ops);
              ("faults.resends", float_of_int (report (fun r -> r.Faults.Checker.resends)));
              ( "faults.drops",
                float_of_int (report (fun r -> r.Faults.Checker.drops_cut + r.Faults.Checker.drops_down)) );
              ("faults.head_changes", float_of_int (report (fun r -> r.Faults.Checker.head_changes)));
              ("faults.switches", float_of_int (report (fun r -> r.Faults.Checker.switches)));
            ]
            @ List.map
                (fun name -> (name, mean (List.map (fun (_, l) -> List.assoc name l) meta_rows)))
                [
                  "meta.attached_bytes_per_op"; "meta.stabilization_bytes_per_op";
                  "meta.heartbeat_bytes_per_op";
                ]
            @ probe_layers probe ~ops
            @ gauge_peaks (List.map (fun (o : Fault_run.outcome) -> o.series) outcomes)
            @ row_layers
            @ analyze;
          check = Ok "";
        }
      in
      { build_s = 0.; run }
    in
    { stage; setup_layers = []; digest = "" }
  in
  { name = "faults-matrix"; prepare }

(* the shootout's rows at seed 42 must match the checked-in
   BENCH_shootout.json within bench-check's 2 % *)
let shootout_check ~baseline ~seed rows =
  if seed <> 42 then Ok ""
  else if not (Sys.file_exists baseline) then Error (baseline ^ " is missing")
  else
    let r =
      Engine_bench.check ~baseline:(Report.read_file baseline) ~fresh:(Shootout.to_json ~seed rows)
        ~tolerance:0.02
    in
    if r.Engine_bench.failures = [] then Ok "" else Error (String.concat "; " r.Engine_bench.failures)

let shootout_8 ?(baseline = "BENCH_shootout.json") () =
  let prepare ~seed _tracer =
    let stage mode =
      let run () =
        let (rows, (slices, slice_refs)), wall_s, words, minor_gcs, major_gcs, promoted =
          measured (fun () ->
              row_slices (tracer_of mode)
                (fun system ->
                  let go () =
                    match mode with
                    | Counted ->
                      let p = Sim.Probe.create ~keep:false () in
                      let row = Sim.Probe.with_probe p (fun () -> Shootout.run_system ~seed system) in
                      (row, probe_sum p)
                    | Plain | Spans _ -> (Shootout.run_system ~seed system, no_probe)
                  in
                  let w0 = words () in
                  let (row, probe), row_s = timed (tracer_of mode) ("row." ^ system) go in
                  (row, probe, row_s, words () -. w0))
                Shootout.systems)
        in
        let ops = List.fold_left (fun acc (r, _, _, _) -> acc + r.Shootout.ops) 0 rows in
        let probe = List.fold_left (fun acc (_, p, _, _) -> add_probe acc p) no_probe rows in
        let events = assoc0 "engine_step" probe.counts in
        let mean_of f = mean (List.map (fun (r, _, _, _) -> f r) rows) in
        let bytes f = mean_of (fun r -> per (float_of_int (f r)) r.Shootout.ops) in
        {
          wall_s;
          slices;
          slice_refs;
          words;
          minor_gcs;
          major_gcs;
          promoted;
          ops;
          issued = ops;
          failed = 0;
          empty_rows =
            List.filter_map
              (fun (r, _, _, _) -> if r.Shootout.ops > 0 then None else Some r.Shootout.system)
              rows;
          det =
            [
              ("sim_ops_per_s", mean_of (fun r -> r.Shootout.throughput));
              ("vis_mean_ms", mean_of (fun r -> r.Shootout.vis_mean_ms));
              ("vis_p99_ms", mean_of (fun r -> r.Shootout.vis_p99_ms));
              ("meta_bytes_per_op", mean_of (fun r -> r.Shootout.bytes_per_op));
            ];
          vis_n = 0;
          layers =
            [
              ("meta.attached_bytes_per_op", bytes (fun r -> r.Shootout.attached_bytes));
              ("meta.stabilization_bytes_per_op", bytes (fun r -> r.Shootout.stabilization_bytes));
              ("meta.heartbeat_bytes_per_op", bytes (fun r -> r.Shootout.heartbeat_bytes));
            ]
            @ List.concat_map
                (fun (r, _, row_s, row_words) ->
                  let row = "row." ^ r.Shootout.system in
                  [
                    (row ^ ".wall_s", row_s);
                    (row ^ ".alloc_words_per_op", per row_words r.Shootout.ops);
                    (row ^ ".vis_p99_ms", r.Shootout.vis_p99_ms);
                    (row ^ ".meta_bytes_per_op", r.Shootout.bytes_per_op);
                  ])
                rows
            @ (match mode with
              | Counted ->
                [
                  ("engine.events", float_of_int events);
                  ("engine.events_per_op", per (float_of_int events) ops);
                ]
                @ probe_layers probe ~ops
              | Plain | Spans _ -> []);
          check = shootout_check ~baseline ~seed (List.map (fun (r, _, _, _) -> r) rows);
        }
      in
      { build_s = 0.; run }
    in
    { stage; setup_layers = []; digest = "" }
  in
  { name = "shootout-8"; prepare }

(* the benchmark's workloads, as BENCHMARK.json lists them *)
let all () = [ ec2_7dc (); scale (); faults_matrix; shootout_8 () ]

(* a benchmark workload, or another scale tier ("scale-61k", "scale-1m")
   for one-off comparisons of per-event cost against key-space size *)
let find name =
  match List.find_opt (fun w -> w.name = name) (all ()) with
  | Some w -> Some w
  | None ->
    let prefix = "scale-" in
    let n = String.length prefix in
    if String.length name > n && String.sub name 0 n = prefix then
      Option.map
        (fun tier -> scale ~tier ())
        (Workload.Scale.tier_of_name (String.sub name n (String.length name - n)))
    else None
