(* Chrome trace-event ("catapult") JSON export: openable in Perfetto or
   chrome://tracing. Two processes — pid 1 groups datacenter tracks, pid 2
   serializer tracks — with one thread per site/serializer. Matched spans
   become "X" (complete) events; a few point events ride along as "i"
   (instant) marks for orientation. Timestamps are already µs, the unit
   Chrome expects. *)

module Kind = Sim.Probe.Kind

let sites_pid = 1
let serializers_pid = 2

(* which track a span is drawn on *)
let track (s : Sim.Probe.span) =
  match s.sk with
  | Sk_sink_hold | Sk_proxy_order | Sk_stab -> (sites_pid, s.site)
  | Sk_attach -> (serializers_pid, s.peer)
  | Sk_chain | Sk_delay_hop | Sk_hop | Sk_delay_egress | Sk_egress -> (serializers_pid, s.site)
  | Sk_bulk -> (sites_pid, max 0 s.peer)

let x_event (s : Sim.Probe.span) t0 t1 =
  let pid, tid = track s in
  Printf.sprintf
    {|{"name":"%s","cat":"span","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"origin":%d,"seq":%d,"aux":%d,"site":%d,"peer":%d}}|}
    (Sim.Probe.span_kind_name s.sk)
    (Sim.Time.to_us t0)
    (Sim.Time.to_us t1 - Sim.Time.to_us t0)
    pid tid s.origin s.seq s.aux s.site s.peer

(* the instant mark a view is drawn as, with its track, if it is one *)
let instant_event at (v : Sim.Probe.view) =
  let mk name pid tid args =
    Some
      ( (pid, tid),
        Printf.sprintf
          {|{"name":"%s","cat":"probe","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{%s}}|}
          name (Sim.Time.to_us at) pid tid args )
  in
  match v.kind with
  | Kind.Sink_emit -> mk "sink_emit" sites_pid v.f0 (Printf.sprintf {|"ts":%d|} v.f1)
  | Kind.Ser_commit ->
    mk "ser_commit" serializers_pid v.f0 (Printf.sprintf {|"origin":%d,"oseq":%d|} v.f1 v.f2)
  | Kind.Head_change -> mk "head_change" serializers_pid v.f0 ""
  | Kind.Proxy_apply ->
    mk "proxy_apply" sites_pid v.f0
      (Printf.sprintf {|"src":%d,"ts":%d,"fallback":%b|} v.f1 v.f3 v.flag)
  | Kind.Stab_round -> mk "stab_round" sites_pid v.f0 (Printf.sprintf {|"gst":%d|} v.f1)
  | _ -> None

let write probe oc =
  (* one replay: slices as their spans close, instant marks as they pass,
     each line after its separator, and every track either lands on *)
  let tids = Hashtbl.create 16 in
  let slices = Buffer.create 4096 and instants = Buffer.create 4096 in
  let add buf tr line =
    Hashtbl.replace tids tr ();
    Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  let pair =
    Journey.pair_spans (Hashtbl.create 1024) (fun s t0 t1 -> add slices (track s) (x_event s t0 t1))
  in
  Sim.Probe.iter_views probe (fun at v ->
      pair at v;
      Option.iter (fun (tr, line) -> add instants tr line) (instant_event at v));
  (* metadata: name every track that appears, sorted for determinism *)
  let tracks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tids []) in
  Printf.fprintf oc
    {|{"traceEvents":[
{"name":"process_name","ph":"M","pid":%d,"args":{"name":"datacenters"}},
{"name":"process_name","ph":"M","pid":%d,"args":{"name":"serializers"}}|}
    sites_pid serializers_pid;
  List.iter
    (fun (pid, tid) ->
      let name = if pid = sites_pid then Printf.sprintf "dc%d" tid else Printf.sprintf "ser%d" tid in
      Printf.fprintf oc
        {|,
{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
        pid tid name)
    tracks;
  Buffer.output_buffer oc slices;
  Buffer.output_buffer oc instants;
  output_string oc {|
],"displayTimeUnit":"ms"}
|}
