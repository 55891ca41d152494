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
  | Sim.Probe.Sk_sink_hold -> (sites_pid, s.site)
  | Sim.Probe.Sk_attach -> (serializers_pid, s.peer)
  | Sim.Probe.Sk_chain | Sim.Probe.Sk_delay_hop | Sim.Probe.Sk_hop | Sim.Probe.Sk_delay_egress
  | Sim.Probe.Sk_egress ->
    (serializers_pid, s.site)
  | Sim.Probe.Sk_proxy_order -> (sites_pid, s.site)
  | Sim.Probe.Sk_bulk -> (sites_pid, max 0 s.peer)
  | Sim.Probe.Sk_stab -> (sites_pid, s.site)

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
  let spans = Journey.spans probe in
  (* metadata: name every track that appears, sorted for determinism *)
  let tids = Hashtbl.create 16 in
  List.iter (fun (s, _, _) -> Hashtbl.replace tids (track s) ()) spans;
  (* the instant marks, each after its separator: they follow the spans *)
  let instants = Buffer.create 4096 in
  Sim.Probe.iter_views probe (fun at v ->
      match instant_event at v with
      | Some (tr, line) ->
        Hashtbl.replace tids tr ();
        Buffer.add_string instants ",\n";
        Buffer.add_string instants line
      | None -> ());
  let tracks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tids []) in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let push line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  push
    (Printf.sprintf {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"datacenters"}}|}
       sites_pid);
  push
    (Printf.sprintf {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"serializers"}}|}
       serializers_pid);
  List.iter
    (fun (pid, tid) ->
      let name = if pid = sites_pid then Printf.sprintf "dc%d" tid else Printf.sprintf "ser%d" tid in
      push
        (Printf.sprintf {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
           pid tid name))
    tracks;
  List.iter (fun (s, t0, t1) -> push (x_event s t0 t1)) spans;
  output_string oc {|{"traceEvents":[
|};
  Buffer.output_buffer oc buf;
  Buffer.output_buffer oc instants;
  output_string oc {|
],"displayTimeUnit":"ms"}
|}
