type row = {
  system : string;
  ops : int;
  throughput : float;
  vis_mean_ms : float;
  vis_p50_ms : float;
  vis_p99_ms : float;
  attached_bytes : int;
  stabilization_bytes : int;
  heartbeat_bytes : int;
  bytes_per_op : float;
}

(* fixed order: cheapest metadata family first, matching the Table 2
   hierarchy the shootout is built to reproduce *)
let systems =
  List.map Build.name [ `Eventual; `Gentlerain; `Eunomia; `Saturn; `Okapi; `Cure; `Orbe; `Cops ]

(* the star: one serializer at the central site, every datacenter attached
   to it. No serializer-to-serializer hops, so Saturn's attached bytes are
   one label per payload shipment — the per-label metadata cost the
   shootout compares, not the relaying a deeper tree would add. *)
let star_config ~dc_sites =
  let tree = Saturn.Tree.star ~n_dcs:3 in
  Saturn.Config.create ~tree ~placement:[| 1 |] ~dc_sites ()

let run_system ?(seed = 42) name =
  if not (List.mem name systems) then invalid_arg ("Shootout: unknown system " ^ name);
  let spec = Build.three_site star_config in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let { Build.topo; dc_sites; _ } = spec in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let api = Build.make ~registry (Build.of_name name) engine spec metrics in
  let r =
    Driver.synthetic engine api metrics spec ~seed ~per_dc:4 ~cooldown:(Sim.Time.of_ms 400)
  in
  let cval suffix =
    Stats.Registry.counter_value
      (Stats.Registry.counter registry (Printf.sprintf "meta.bytes.%s.%s" name suffix))
  in
  let attached_bytes = cval "attached" in
  let stabilization_bytes = cval "stabilization" in
  let heartbeat_bytes = cval "heartbeat" in
  let total = attached_bytes + stabilization_bytes + heartbeat_bytes in
  let vis = Metrics.visibility metrics in
  let pct p = if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis p in
  {
    system = name;
    ops = r.Driver.ops_completed;
    throughput = r.Driver.throughput;
    vis_mean_ms = Stats.Sample.mean vis;
    vis_p50_ms = pct 50.;
    vis_p99_ms = pct 99.;
    attached_bytes;
    stabilization_bytes;
    heartbeat_bytes;
    bytes_per_op =
      (if r.Driver.ops_completed = 0 then 0.
       else float_of_int total /. float_of_int r.Driver.ops_completed);
  }

(* the Table 2 metadata hierarchy, as adjacent-family bands on bytes/op *)
let families =
  [
    ("none", [ "eventual" ]);
    ("scalar", [ "gentlerain"; "eunomia"; "saturn" ]);
    ("hybrid", [ "okapi" ]);
    ("vector", [ "cure"; "orbe" ]);
    ("dependencies", [ "cops" ]);
  ]

let ordering_violations rows =
  let bpo name =
    match List.find_opt (fun r -> r.system = name) rows with
    | Some r -> Some r.bytes_per_op
    | None -> None
  in
  let band members =
    match List.filter_map bpo members with
    | [] -> None
    | xs -> Some (List.fold_left min infinity xs, List.fold_left max neg_infinity xs)
  in
  let rec pairs acc = function
    | (na, ma) :: ((nb, mb) :: _ as rest) ->
      let acc =
        match (band ma, band mb) with
        | Some (_, max_a), Some (min_b, _) when max_a >= min_b ->
          Printf.sprintf "%s (max %.2f B/op) not below %s (min %.2f B/op)" na max_a nb min_b
          :: acc
        | _ -> acc
      in
      pairs acc rest
    | _ -> List.rev acc
  in
  pairs [] families

let print rows =
  let table =
    Stats.Table.create ~title:"stabilization shootout (3 DCs, full replication, star Saturn)"
      ~columns:
        [
          "system"; "ops"; "ops/s"; "vis ms"; "p50 ms"; "p99 ms"; "attached B";
          "stab B"; "hb B"; "B/op";
        ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          r.system;
          string_of_int r.ops;
          Printf.sprintf "%.0f" r.throughput;
          Printf.sprintf "%.1f" r.vis_mean_ms;
          Printf.sprintf "%.1f" r.vis_p50_ms;
          Printf.sprintf "%.1f" r.vis_p99_ms;
          string_of_int r.attached_bytes;
          string_of_int r.stabilization_bytes;
          string_of_int r.heartbeat_bytes;
          Printf.sprintf "%.2f" r.bytes_per_op;
        ])
    rows;
  Stats.Table.print table;
  match ordering_violations rows with
  | [] ->
    print_endline
      "metadata ordering: eventual < scalar [gentlerain eunomia saturn] < hybrid [okapi] < \
       vector [cure orbe] < dependencies [cops] -- holds"
  | vs ->
    print_endline "metadata ordering VIOLATED:";
    List.iter (fun v -> Printf.printf "  %s\n" v) vs

(* every field is simulated-time deterministic, so everything lands under
   "det" and the bench-check gate hard-gates all of it; no "wall" section *)
let to_json ~seed rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"saturn-bench-shootout/1\",\"seed\":%d,\"tiers\":[" seed);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"tier\":%S,\"det\":{\"ops\":%d,\"throughput_ops_s\":%.1f,\"vis_mean_ms\":%.3f,\"vis_p50_ms\":%.3f,\"vis_p99_ms\":%.3f,\"meta_attached_bytes\":%d,\"meta_stabilization_bytes\":%d,\"meta_heartbeat_bytes\":%d,\"meta_bytes_per_op\":%.3f}}"
           r.system r.ops r.throughput r.vis_mean_ms r.vis_p50_ms r.vis_p99_ms
           r.attached_bytes r.stabilization_bytes r.heartbeat_bytes r.bytes_per_op))
    rows;
  Buffer.add_string b "]}\n";
  Buffer.contents b
