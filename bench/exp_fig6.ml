(* Figure 6: impact of latency variability. Three datacenters (N.
   California, Oregon, Ireland); extra latency is injected on the NC–Oregon
   link (measured average 10 ms). Two single-serializer configurations:
   T1 places the serializer in Oregon (optimal under normal conditions),
   T2 in Ireland. We report the average extra remote-visibility latency
   each adds over eventual consistency. *)

open Harness

let injected_topology ~extra_ms =
  Sim.Topology.create ~names:[| "NC"; "O"; "I" |]
    ~latency_ms:
      [|
        [| 0; 10 + extra_ms; 74 |];
        [| 10 + extra_ms; 0; 69 |];
        [| 74; 69; 0 |];
      |]

let run_one ~topo ~serializer_site system_kind =
  let engine = Sim.Engine.create () in
  let dc_sites = [| 0; 1; 2 |] in
  let n_keys = 300 in
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys in
  let metrics = Metrics.create engine ~topo ~dc_sites in
  let config =
    Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs:3) ~placement:[| serializer_site |]
      ~dc_sites:(Array.copy dc_sites) ()
  in
  let spec =
    { (Build.default_spec ~topo ~dc_sites ~rmap) with Build.saturn_config = Some config }
  in
  let api = Build.make system_kind engine spec metrics in
  let workload =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys; seed = 23 }
      ~rmap ~topo ~dc_sites
  in
  let clients = Driver.make_clients ~dc_sites ~per_dc:30 in
  let next_op (c : Client.t) = Workload.Synthetic.next workload ~dc:c.Client.preferred_dc in
  let _ =
    Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 300)
      ~measure:(Sim.Time.of_sec 1.0) ~cooldown:(Sim.Time.of_ms 200)
  in
  Stats.Sample.mean (Metrics.visibility metrics)

let run () =
  Util.section "Figure 6: extra remote visibility latency vs injected NC-Oregon delay";
  let table =
    Stats.Table.create ~title:"extra visibility vs eventual (ms, mean)"
      ~columns:[ "injected ms"; "T1 (Oregon)"; "T2 (Ireland)" ]
  in
  List.iter
    (fun extra_ms ->
      let topo = injected_topology ~extra_ms in
      let eventual = run_one ~topo ~serializer_site:1 `Eventual in
      let t1 = run_one ~topo ~serializer_site:1 `Saturn in
      let t2 = run_one ~topo ~serializer_site:2 `Saturn in
      Stats.Table.add_row table
        [
          string_of_int extra_ms;
          Printf.sprintf "%.1f" (t1 -. eventual);
          Printf.sprintf "%.1f" (t2 -. eventual);
        ])
    [ 0; 25; 50; 75; 100; 125 ];
  Util.print_table table;
  Util.note
    "T1 (Oregon) is optimal under normal conditions and degrades only slowly; T2 becomes\n\
     preferable only under a sustained injected delay far above normal variability."
