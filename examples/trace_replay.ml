(* Record a workload trace once, replay it against two systems.

     dune exec examples/trace_replay.exe

   Traces make comparisons airtight: both systems see exactly the same
   operation sequence per client, and a saved trace can be re-run months
   later (or attached to a bug report). *)

let n_dcs = 3
let n_keys = 64
let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs)

let record_trace () =
  let rng = Sim.Rng.create ~seed:77 in
  let rmap =
    Workload.Keyspace.make ~rng ~topo:Sim.Ec2.topology ~dc_sites ~n_keys Workload.Keyspace.Exponential
  in
  let w =
    Workload.Synthetic.create
      { Workload.Synthetic.default with Workload.Synthetic.n_keys; seed = 78 }
      ~rmap ~topo:Sim.Ec2.topology ~dc_sites
  in
  let clients = List.init 9 Fun.id in
  (rmap, Workload.Trace.record ~clients ~next:(fun ~client -> Workload.Synthetic.next w ~dc:(client mod n_dcs)) ~ops_per_client:200)

let replay system rmap trace_text =
  let trace = Workload.Trace.of_string trace_text in
  let engine = Sim.Engine.create () in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let api = Harness.Build.make system engine spec metrics in
  let clients =
    List.init 9 (fun i ->
        Harness.Client.create ~id:i ~home_site:dc_sites.(i mod n_dcs) ~preferred_dc:(i mod n_dcs))
  in
  let done_ops = ref 0 in
  let rec loop (c : Harness.Client.t) () =
    match Workload.Trace.next trace ~client:c.Harness.Client.id with
    | None -> ()
    | Some (Workload.Op.Read { key }) ->
      api.Harness.Api.read c ~key ~k:(fun _ -> incr done_ops; loop c ())
    | Some (Workload.Op.Write { key; value }) ->
      api.Harness.Api.update c ~key ~value ~k:(fun () -> incr done_ops; loop c ())
    | Some (Workload.Op.Remote_read { key; at }) ->
      api.Harness.Api.migrate c ~dest_dc:at ~k:(fun () ->
          api.Harness.Api.read c ~key ~k:(fun _ ->
              api.Harness.Api.migrate c ~dest_dc:c.Harness.Client.preferred_dc ~k:(fun () ->
                  incr done_ops;
                  loop c ())))
  in
  List.iter (fun c -> api.Harness.Api.attach c ~dc:c.Harness.Client.preferred_dc ~k:(loop c)) clients;
  Sim.Engine.run ~until:(Sim.Time.of_sec 30.) engine;
  api.Harness.Api.stop ();
  Sim.Engine.run ~until:(Sim.Time.of_sec 32.) engine;
  Printf.printf "  %-10s completed %4d ops in %.3fs simulated; %d remote updates observed\n"
    (Harness.Build.name system) !done_ops
    (Sim.Time.to_sec_float (Sim.Engine.now engine))
    (Harness.Metrics.visible_count metrics)

let () =
  Printf.printf "recording a 1800-op trace from the synthetic generator...\n";
  let rmap, trace = record_trace () in
  let path = Filename.temp_file "saturn_trace" ".txt" in
  Workload.Trace.save trace ~path;
  Printf.printf "saved to %s (%d bytes)\n\n" path (In_channel.with_open_text path In_channel.length |> Int64.to_int);
  let text = In_channel.with_open_text path In_channel.input_all in
  Printf.printf "replaying the identical trace against two systems:\n";
  replay `Saturn rmap text;
  replay `Eventual rmap text;
  Sys.remove path
