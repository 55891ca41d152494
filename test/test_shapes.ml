(* Shape assertions: slow tests that lock the paper's headline directions
   into the suite, so a calibration or protocol regression that flips a
   conclusion fails CI rather than silently shipping wrong benchmarks. *)

open Harness

let mini_setup ~n_dcs ~correlation =
  { Scenario.default_setup with
    Scenario.n_dcs;
    correlation;
    n_keys = 60 * n_dcs;
    clients_per_dc = 20;
    measure = Sim.Time.of_ms 700;
    warmup = Sim.Time.of_ms 250;
    cooldown = Sim.Time.of_ms 100;
  }

let test_fig1_directions () =
  (* GentleRain: flat throughput penalty, staleness grows with #DCs;
     Cure: growing throughput penalty, flat staleness *)
  let at n sys = Scenario.run sys (mini_setup ~n_dcs:n ~correlation:Workload.Keyspace.Full) in
  let ev3 = at 3 `Eventual and ev5 = at 5 `Eventual in
  let gr3 = at 3 `Gentlerain and gr5 = at 5 `Gentlerain in
  let cu3 = at 3 `Cure and cu5 = at 5 `Cure in
  let pen (ev : Scenario.outcome) (o : Scenario.outcome) =
    (ev.Scenario.throughput -. o.Scenario.throughput) /. ev.Scenario.throughput
  in
  if pen ev5 cu5 <= pen ev3 cu3 then Alcotest.fail "Cure's throughput penalty must grow with #DCs";
  if pen ev5 gr5 > 0.10 then Alcotest.fail "GentleRain's throughput penalty must stay small";
  let stale (o : Scenario.outcome) = o.Scenario.extra_visibility_ms in
  if stale gr5 <= stale gr3 then Alcotest.fail "GentleRain's staleness must grow with #DCs";
  if stale cu5 > 0.5 *. stale gr5 then Alcotest.fail "Cure must stay far fresher than GentleRain"

let test_saturn_sweet_spot () =
  (* the paper's core claim at 5 DCs, exponential correlation *)
  let setup = mini_setup ~n_dcs:5 ~correlation:Workload.Keyspace.Exponential in
  let ev = Scenario.run `Eventual setup in
  let sat = Scenario.run `Saturn setup in
  let gr = Scenario.run `Gentlerain setup in
  let cu = Scenario.run `Cure setup in
  let t (o : Scenario.outcome) = o.Scenario.throughput in
  let extra (o : Scenario.outcome) = o.Scenario.extra_visibility_ms in
  if t sat < 0.95 *. t ev then Alcotest.fail "Saturn throughput must be within 5% of eventual";
  if t sat < t gr then Alcotest.fail "Saturn must beat GentleRain on throughput";
  if t sat < 1.1 *. t cu then Alcotest.fail "Saturn must clearly beat Cure on throughput";
  if extra sat > 0.3 *. extra gr then
    Alcotest.failf "Saturn staleness (%.1f) must be far below GentleRain (%.1f)" (extra sat) (extra gr)

let test_pconf_matches_longest_latency () =
  (* the P-configuration tends to the longest inter-DC travel time *)
  let setup = mini_setup ~n_dcs:5 ~correlation:Workload.Keyspace.Full in
  let o = Scenario.run `Saturn_peer setup in
  (* per destination the timestamp fallback waits for the slowest incoming
     promise; averaged over the NV NC O I F pairs that sits in the 65-110ms
     band, far above the ~50ms mean bulk latency *)
  let vis = o.Scenario.mean_visibility_ms in
  if vis < 65. || vis > 110. then
    Alcotest.failf "P-conf visibility should be slowest-path bound, got %.1f" vis

let test_partial_replication_traffic_shape () =
  (* Saturn's metadata traffic per label must shrink with the correlation *)
  let hops correlation =
    let setup = mini_setup ~n_dcs:5 ~correlation in
    let engine = Sim.Engine.create () in
    let sites = Scenario.dc_sites setup in
    let rmap = Scenario.replica_map setup in
    let metrics = Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites:sites in
    let spec =
      { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
        Build.saturn_config = Some (Scenario.solved_config setup);
      }
    in
    let api, system = Build.saturn engine spec metrics in
    let workload =
      Workload.Synthetic.create
        { Workload.Synthetic.default with Workload.Synthetic.n_keys = setup.Scenario.n_keys }
        ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
    in
    let clients = Driver.make_clients ~dc_sites:sites ~per_dc:10 in
    let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
    let _ =
      Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 100)
        ~measure:(Sim.Time.of_ms 500) ~cooldown:(Sim.Time.of_ms 100)
    in
    match Saturn.System.service system with
    | Some s ->
      float_of_int (Saturn.Service.total_label_hops s)
      /. float_of_int (max 1 (Saturn.Service.labels_input s))
    | None -> Alcotest.fail "no service"
  in
  let exp_hops = hops Workload.Keyspace.Exponential in
  let full_hops = hops Workload.Keyspace.Full in
  if exp_hops >= full_hops then
    Alcotest.failf "partial replication must cut label traffic (%.2f vs %.2f hops/label)"
      exp_hops full_hops

let suite =
  [
    Alcotest.test_case "figure 1 directions hold" `Slow test_fig1_directions;
    Alcotest.test_case "saturn occupies the sweet spot" `Slow test_saturn_sweet_spot;
    Alcotest.test_case "P-conf tends to the longest latency" `Slow test_pconf_matches_longest_latency;
    Alcotest.test_case "partial replication cuts label traffic" `Slow test_partial_replication_traffic_shape;
  ]
