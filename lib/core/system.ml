type params = {
  geo : Fabric.params;
  config : Config.t;
  serializer_replicas : int;
  peer_mode : bool;
}

let default_params ~topo ~dc_sites ~rmap ~config =
  {
    geo = Fabric.default_params ~topo ~dc_sites ~rmap;
    config;
    serializer_replicas = 1;
    peer_mode = false;
  }

type route = { mutable to_next : bool; mutable marker : Label.t option }

type t = {
  p : params;
  observer : Stats.Observer.t;
  fabric : (Datacenter.session, Label.t, Datacenter.item, Datacenter.bulk) Fabric.t;
  mutable dcs : Datacenter.t array;
  mutable service : Service.t option;
  mutable next_service : Service.t option;
  routes : route array; (* per-dc: which tree the sink currently feeds *)
  mutable epoch : int;
  (* reconfiguration observability: the dual-tree overlap window is open
     from [switch_config] until the last proxy completes its migration *)
  mutable switch_at : Sim.Time.t option;
  mutable switch_pending_dcs : int;
  switches_counter : Stats.Registry.counter;
  labels_old_counter : Stats.Registry.counter;
  labels_new_counter : Stats.Registry.counter;
  dual_window_counter : Stats.Registry.counter;
}

let n_dcs t = Array.length t.dcs
let service t = t.service
let next_service t = t.next_service
let params t = t.p
let fabric t = t.fabric

let interest_of p label =
  match label.Label.target with
  | Label.Update { key } -> Kvstore.Replica_map.mask p.geo.Fabric.rmap ~key
  | Label.Migration { dest_dc } -> 1 lsl dest_dc
  | Label.Epoch_change _ -> (1 lsl Array.length p.geo.Fabric.dc_sites) - 1

let deliver_current t ~dc label = Proxy.on_label (Datacenter.proxy t.dcs.(dc)) label
let deliver_next t ~dc label = Proxy.on_label_next (Datacenter.proxy t.dcs.(dc)) label

let route_label t dc label =
  let route = t.routes.(dc) in
  let in_dual_window = t.switch_at <> None && t.switch_pending_dcs > 0 in
  let service =
    if route.to_next then begin
      if in_dual_window then Stats.Registry.incr t.labels_new_counter;
      t.next_service
    end
    else begin
      if in_dual_window then Stats.Registry.incr t.labels_old_counter;
      t.service
    end
  in
  (match service with Some s -> Service.input s ~dc label | None -> ());
  (* the epoch-change marker is the last label through the old tree *)
  match route.marker with
  | Some m when Label.equal m label -> route.to_next <- true
  | Some _ | None -> ()

(* ---- client operations -------------------------------------------------- *)

(* Each op is one [Datacenter.Request] record on the fabric's request
   legs, from the client's home site and back, carrying the client's
   session from the fabric's table. *)

let not_a_request () = invalid_arg "System: not a client request"

let send t session ~dc op ~key ~value =
  Fabric.send t.fabric ~home:session.Datacenter.home ~dc (Datacenter.request op session ~key ~value)

let request t ~client ~home ~dc op ~key ~value =
  send t (Fabric.session t.fabric ~client ~home) ~dc op ~key ~value

let attach t ~client ~home ~dc ~k =
  request t ~client ~home ~dc (Attach k) ~key:0 ~value:Datacenter.no_value

let read t ~client ~home ~dc ~key ~k =
  request t ~client ~home ~dc (Read k) ~key ~value:Datacenter.no_value

let update t ~client ~home ~dc ~key ~value ~k = request t ~client ~home ~dc (Update k) ~key ~value

let update_with_label t ~client ~home ~dc ~key ~value ~k =
  request t ~client ~home ~dc (Update_with_label k) ~key ~value

let migrate t ~client ~home ~dc ~preferred_dc ~dest_dc ~k =
  (* Migration labels are an optimization (§4.4), not a requirement: they
     pay one request round-trip to the current datacenter. That is free
     when the client is at its preferred site, but from a remote datacenter
     the request itself crosses the WAN, costing more than the conservative
     attach it would save — so a returning client attaches directly
     (Algorithm 1 handles its label: instantly when the causal past was
     generated at the destination, per-source stabilization otherwise). *)
  if dc = preferred_dc && not t.p.peer_mode then
    request t ~client ~home ~dc (Migrate { dest_dc; k }) ~key:0 ~value:Datacenter.no_value
  else attach t ~client ~home ~dc:dest_dc ~k

(* the back legs' one handler: the reply reaches the client *)
let finish t ~dc:_ item =
  match item with
  | Datacenter.Request r -> (
    match r.op with
    | Attach k -> k ()
    | Read k ->
      if r.hit then begin
        Datacenter.observe r.session r.label;
        k (Some r.value)
      end
      else k None
    | Update k ->
      Datacenter.observe r.session r.label;
      k ()
    | Update_with_label k ->
      Datacenter.observe r.session r.label;
      k r.label
    | Migrate { dest_dc; k } ->
      Datacenter.observe r.session r.label;
      send t r.session ~dc:dest_dc (Attach k) ~key:0 ~value:Datacenter.no_value)
  | Datacenter.Stage _ -> not_a_request ()

let handlers =
  {
    Fabric.arrive = (fun _ ~dc:_ item -> Datacenter.arrive item);
    front = (fun t ~dc item -> Datacenter.front t.dcs.(dc) item);
    serve = (fun t ~dc ~part item -> Datacenter.serve t.dcs.(dc) ~part item);
    finish;
    deliver = (fun t ~src:_ ~dst b -> Datacenter.deliver t.dcs.(dst) b);
  }

let heartbeat_wire_bytes = 12 (* floor ts (8) + src dc (2) + epoch tag (2) *)

let create ~observer engine p hooks =
  let { Stats.Observer.registry; series } = observer in
  (* Metadata-byte accounting: Saturn attaches one constant label per
     remote payload shipment; the metadata tree itself is the
     stabilization mechanism (its cost shows up as tree-hop latency, not
     as per-update wire bytes), so the stabilization counter stays 0 by
     construction and only heartbeats add background bytes. *)
  let meta = Stats.Meta_bytes.create registry ~system:"saturn" in
  let n = Array.length p.geo.Fabric.dc_sites in
  let t =
    Fabric.create engine p.geo handlers hooks ~meta ~cmp:Label.compare ~session:Datacenter.session
      (fun fabric ->
        {
          p;
          observer;
          fabric;
          dcs = [||];
          service = None;
          next_service = None;
          routes = Array.init n (fun _ -> { to_next = false; marker = None });
          epoch = 0;
          switch_at = None;
          switch_pending_dcs = 0;
          switches_counter = Stats.Registry.counter registry "reconfig.switches";
          labels_old_counter = Stats.Registry.counter registry "reconfig.labels_old_tree";
          labels_new_counter = Stats.Registry.counter registry "reconfig.labels_new_tree";
          dual_window_counter = Stats.Registry.counter registry "reconfig.dual_window_us";
        })
  in
  t.dcs <-
    Array.init n (fun dc ->
        let hooks_dc =
          {
            Datacenter.epoch = (fun () -> t.epoch);
            emit_label = (fun label -> route_label t dc label);
          }
        in
        Datacenter.create engine ~dc ~fabric:t.fabric ~hooks:hooks_dc ~observer
          ~proxy_mode:(if p.peer_mode then Proxy.Fallback else Proxy.Stream));
  if not p.peer_mode then
    t.service <-
      Some
        (Service.create engine ~topo:p.geo.Fabric.topo ~config:p.config ~interest:(interest_of p)
           ~deliver:(fun ~dc label -> deliver_current t ~dc label)
           ~observer ~serializer_replicas:p.serializer_replicas ~name:"service" ~instance:0 ());
  (match series with
  | Some sr ->
    Fabric.drive_series t.fabric sr;
    (* dual-tree overlap: 1 while a reconfiguration is migrating (both trees
       carry traffic), 0 at steady state *)
    Stats.Series.sample sr "series.reconfig.dual_tree" (fun () ->
        if t.switch_at <> None && t.switch_pending_dcs > 0 then 1.0 else 0.0)
  | None -> ());
  (* bulk-channel heartbeats: each datacenter periodically promises its gear
     floor to every other datacenter (liveness for attach stabilization and
     for the timestamp fallback) *)
  for dc = 0 to n - 1 do
    Fabric.every t.fabric p.geo.Fabric.cost.Cost_model.heartbeat_period (fun () ->
        (* the epoch is captured at send time, like payload tags; one
           message serves every destination *)
        Fabric.broadcast t.fabric ~src:dc ~size_bytes:heartbeat_wire_bytes ~heartbeat:true
          (Datacenter.Heartbeat { src = dc; epoch = t.epoch; floor = Fabric.floor t.fabric ~dc }))
  done;
  t

(* ---- reconfiguration ---------------------------------------------------- *)

let switch_config t config2 ~graceful =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let engine = Fabric.engine t.fabric in
  let now = Sim.Engine.now engine in
  Stats.Registry.incr t.switches_counter;
  t.switch_at <- Some now;
  t.switch_pending_dcs <- Array.length t.dcs;
  if Sim.Probe.active () then Sim.Probe.switch_begin ~at:now ~epoch ~graceful;
  let service2 =
    Service.create engine ~topo:t.p.geo.Fabric.topo ~config:config2 ~interest:(interest_of t.p)
      ~deliver:(fun ~dc label -> deliver_next t ~dc label)
      (* the first tree owns the run's series names *)
      ~observer:{ t.observer with Stats.Observer.series = None }
      ~serializer_replicas:t.p.serializer_replicas
      ~name:(Printf.sprintf "service.e%d" epoch) ~instance:epoch ()
  in
  t.next_service <- Some service2;
  Array.iteri
    (fun dc dcx ->
      let proxy = Datacenter.proxy dcx in
      (* close the dual-tree window when the last proxy finishes migrating *)
      Proxy.on_switch_done proxy (fun () ->
          t.switch_pending_dcs <- t.switch_pending_dcs - 1;
          if t.switch_pending_dcs = 0 then
            match t.switch_at with
            | Some t0 ->
              let dual_us = Sim.Time.to_us (Sim.Engine.now engine) - Sim.Time.to_us t0 in
              Stats.Registry.incr_by t.dual_window_counter dual_us
            | None -> ());
      if graceful then begin
        Proxy.start_graceful_switch proxy ~epoch;
        (* inject the epoch-change marker through the old tree; labels the
           sink emits after it flow through the new tree *)
        let marker = Datacenter.emit_epoch_label dcx ~epoch in
        t.routes.(dc).marker <- Some marker
      end
      else begin
        Proxy.start_forced_switch proxy ~epoch;
        t.routes.(dc).to_next <- true
      end)
    t.dcs

let switch_complete t =
  Array.for_all (fun dcx -> Proxy.switch_complete (Datacenter.proxy dcx)) t.dcs

let crash_serializer t s =
  match t.service with
  | Some service -> Service.crash_serializer service s
  | None -> invalid_arg "System.crash_serializer: peer mode has no serializers"

let enter_fallback t =
  Array.iter (fun dcx -> Proxy.set_mode (Datacenter.proxy dcx) Proxy.Fallback) t.dcs

let stop t =
  Fabric.stop t.fabric;
  Array.iter Datacenter.stop t.dcs;
  Option.iter Service.shutdown t.service;
  Option.iter Service.shutdown t.next_service

let total_updates t = Array.fold_left (fun acc d -> acc + Datacenter.updates_originated d) 0 t.dcs

let total_remote_applied t =
  Array.fold_left (fun acc d -> acc + Datacenter.remote_applied d) 0 t.dcs
