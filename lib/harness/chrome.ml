(* Chrome trace-event ("catapult") JSON export: openable in Perfetto or
   chrome://tracing. Two processes — pid 1 groups datacenter tracks, pid 2
   serializer tracks — with one thread per site/serializer. Matched spans
   become "X" (complete) events; a few point events ride along as "i"
   (instant) marks for orientation. Timestamps are already µs, the unit
   Chrome expects. *)

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

let instant_event at ev =
  let t = Sim.Time.to_us at in
  let mk name pid tid args =
    Some
      (Printf.sprintf {|{"name":"%s","cat":"probe","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{%s}}|}
         name t pid tid args)
  in
  match ev with
  | Sim.Probe.Sink_emit { dc; ts } -> mk "sink_emit" sites_pid dc (Printf.sprintf {|"ts":%d|} ts)
  | Sim.Probe.Ser_commit { ser; origin; oseq; epoch = _ } ->
    mk "ser_commit" serializers_pid ser (Printf.sprintf {|"origin":%d,"oseq":%d|} origin oseq)
  | Sim.Probe.Head_change { ser } -> mk "head_change" serializers_pid ser ""
  | Sim.Probe.Proxy_apply { dc; src_dc; ts; fallback; gear = _ } ->
    mk "proxy_apply" sites_pid dc
      (Printf.sprintf {|"src":%d,"ts":%d,"fallback":%b|} src_dc ts fallback)
  | Sim.Probe.Stab_round { dc; gst } -> mk "stab_round" sites_pid dc (Printf.sprintf {|"gst":%d|} gst)
  | _ -> None

let write probe oc =
  let spans = Journey.spans probe in
  (* metadata: name every track that appears, sorted for determinism *)
  let tids = Hashtbl.create 16 in
  List.iter (fun (s, _, _) -> Hashtbl.replace tids (track s) ()) spans;
  (* exactly the events [instant_event] draws, on the tracks it draws them *)
  Sim.Probe.iter probe (fun _ ev ->
      match ev with
      | Sim.Probe.Sink_emit { dc; _ } | Sim.Probe.Proxy_apply { dc; _ } | Sim.Probe.Stab_round { dc; _ }
        ->
        Hashtbl.replace tids (sites_pid, dc) ()
      | Sim.Probe.Ser_commit { ser; _ } | Sim.Probe.Head_change { ser } ->
        Hashtbl.replace tids (serializers_pid, ser) ()
      | _ -> ());
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
  Sim.Probe.iter probe (fun at ev ->
      match instant_event at ev with Some line -> push line | None -> ());
  output_string oc {|{"traceEvents":[
|};
  Buffer.output_buffer oc buf;
  output_string oc {|
],"displayTimeUnit":"ms"}
|}

let write_file probe ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write probe oc)
