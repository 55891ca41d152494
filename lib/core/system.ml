type params = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  config : Config.t;
  serializer_replicas : int;
  peer_mode : bool;
  bulk_factor : float;
  clock_offsets : Sim.Time.t array option;
}

let default_params ~topo ~dc_sites ~rmap ~config =
  {
    topo;
    dc_sites;
    partitions = 4;
    frontends = 2;
    cost = Cost_model.default;
    rmap;
    config;
    serializer_replicas = 1;
    peer_mode = false;
    bulk_factor = 1.0;
    clock_offsets = None;
  }

type hooks = {
  on_visible :
    dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
}

let no_hooks = { on_visible = (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time:_ ~value:_ -> ()) }

type route = { mutable to_next : bool; mutable marker : Label.t option }

(* what a bulk wire carries: a shipped update or a heartbeat promise, each
   stamped with the sender's epoch at send time *)
type bulk_msg =
  | Payload of Proxy.payload
  | Heartbeat of { src : int; epoch : int; floor : Sim.Time.t }

type t = {
  engine : Sim.Engine.t;
  p : params;
  hooks : hooks;
  registry : Stats.Registry.t;
  mutable dcs : Datacenter.t array;
  bulk_wires : Sim.Link.t array array; (* [src].[dst]; diagonal unused *)
  mutable bulk : bulk_msg Sim.Link.chan array array; (* the wires' channels *)
  leg_latency : Sim.Time.t array array; (* [home site].[dc], one way *)
  mutable out_legs : Datacenter.item Sim.Delay_line.t array array; (* [home site].[dc] *)
  mutable back_legs : Datacenter.item Sim.Delay_line.t array array; (* [dc].[home site] *)
  mutable service : Service.t option;
  mutable next_service : Service.t option;
  routes : route array; (* per-dc: which tree the sink currently feeds *)
  mutable epoch : int;
  mutable stopped : bool;
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
let datacenter t i = t.dcs.(i)
let service t = t.service
let next_service t = t.next_service
let params t = t.p

let bulk_link t ~src ~dst =
  if src = dst then invalid_arg "System.bulk_link: src = dst";
  t.bulk_wires.(src).(dst)

let interest_of p label =
  match label.Label.target with
  | Label.Update { key } -> Kvstore.Replica_map.mask p.rmap ~key
  | Label.Migration { dest_dc } -> 1 lsl dest_dc
  | Label.Epoch_change _ -> (1 lsl Array.length p.dc_sites) - 1

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

let on_bulk t dst = function
  | Payload payload -> Proxy.on_payload (Datacenter.proxy t.dcs.(dst)) payload
  | Heartbeat { src; epoch; floor } ->
    Proxy.on_heartbeat (Datacenter.proxy t.dcs.(dst)) ~src ~epoch floor

(* ---- client operations -------------------------------------------------- *)

(* Each op is one [Datacenter.Request] record on two request legs: a
   delay line per (home site, dc) to the datacenter and one per (dc, home
   site) back. A leg's latency is fixed per pair, so due times never
   decrease, and every push lands at the point and time of the closure it
   replaced. *)

let not_a_request () = invalid_arg "System: not a client request"

let send t client ~dc item =
  let home = Client_lib.home_site client in
  let at = Sim.Time.add (Sim.Engine.now t.engine) t.leg_latency.(home).(dc) in
  Sim.Delay_line.push t.out_legs.(home).(dc) ~at item

let reply t dc item =
  match item with
  | Datacenter.Request r ->
    let home = Client_lib.home_site r.client in
    let at = Sim.Time.add (Sim.Engine.now t.engine) t.leg_latency.(home).(dc) in
    Sim.Delay_line.push t.back_legs.(dc).(home) ~at item
  | Datacenter.Stage _ -> not_a_request ()

let attach t client ~dc ~k =
  send t client ~dc (Datacenter.request (Attach k) client ~key:0 ~value:Datacenter.no_value)

let read t client ~key ~k =
  send t client ~dc:(Client_lib.current_dc client)
    (Datacenter.request (Read k) client ~key ~value:Datacenter.no_value)

let update t client ~key ~value ~k =
  send t client ~dc:(Client_lib.current_dc client) (Datacenter.request (Update k) client ~key ~value)

let update_with_label t client ~key ~value ~k =
  send t client ~dc:(Client_lib.current_dc client)
    (Datacenter.request (Update_with_label k) client ~key ~value)

let migrate t client ~dest_dc ~k =
  let dc = Client_lib.current_dc client in
  (* Migration labels are an optimization (§4.4), not a requirement: they
     pay one request round-trip to the current datacenter. That is free
     when the client is at its preferred site, but from a remote datacenter
     the request itself crosses the WAN, costing more than the conservative
     attach it would save — so a returning client attaches directly
     (Algorithm 1 handles its label: instantly when the causal past was
     generated at the destination, per-source stabilization otherwise). *)
  if dc = Client_lib.preferred_dc client && not t.p.peer_mode then
    send t client ~dc
      (Datacenter.request (Migrate { dest_dc; k }) client ~key:0 ~value:Datacenter.no_value)
  else attach t client ~dc:dest_dc ~k

(* the back legs' one handler: the reply reaches the client at [dc] *)
let finish t dc item =
  match item with
  | Datacenter.Request r -> (
    match r.op with
    | Attach k ->
      Client_lib.set_current_dc r.client dc;
      k ()
    | Read k ->
      if r.hit then begin
        Client_lib.observe r.client r.label;
        k (Some r.value)
      end
      else k None
    | Update k ->
      Client_lib.observe r.client r.label;
      k ()
    | Update_with_label k ->
      Client_lib.observe r.client r.label;
      k r.label
    | Migrate { dest_dc; k } ->
      Client_lib.observe r.client r.label;
      attach t r.client ~dc:dest_dc ~k)
  | Datacenter.Stage _ -> not_a_request ()

let heartbeat_wire_bytes = 12 (* floor ts (8) + src dc (2) + epoch tag (2) *)

let create ?registry ?series engine p hooks =
  let registry = match registry with Some r -> r | None -> Stats.Registry.create () in
  (* Metadata-byte accounting: Saturn attaches one constant label per
     remote payload shipment; the metadata tree itself is the
     stabilization mechanism (its cost shows up as tree-hop latency, not
     as per-update wire bytes), so the stabilization counter stays 0 by
     construction and only heartbeats add background bytes. *)
  let meta = Stats.Meta_bytes.create registry ~system:"saturn" in
  let n = Array.length p.dc_sites in
  let n_sites = Sim.Topology.n_sites p.topo in
  let bulk_wires =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let lat =
              if i = j then Sim.Time.zero else Sim.Topology.latency p.topo p.dc_sites.(i) p.dc_sites.(j)
            in
            let lat = Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. p.bulk_factor)) in
            Sim.Link.create engine ~latency:lat ()))
  in
  let t =
    {
      engine;
      p;
      hooks;
      registry;
      dcs = [||];
      bulk_wires;
      bulk = [||];
      leg_latency =
        Array.init n_sites (fun home ->
            Array.init n (fun dc ->
                if home = p.dc_sites.(dc) then Sim.Time.of_us p.cost.Cost_model.intra_dc_us
                else Sim.Topology.latency p.topo home p.dc_sites.(dc)));
      out_legs = [||];
      back_legs = [||];
      service = None;
      next_service = None;
      routes = Array.init n (fun _ -> { to_next = false; marker = None });
      epoch = 0;
      stopped = false;
      switch_at = None;
      switch_pending_dcs = 0;
      switches_counter = Stats.Registry.counter registry "reconfig.switches";
      labels_old_counter = Stats.Registry.counter registry "reconfig.labels_old_tree";
      labels_new_counter = Stats.Registry.counter registry "reconfig.labels_new_tree";
      dual_window_counter = Stats.Registry.counter registry "reconfig.dual_window_us";
    }
  in
  t.dcs <-
    Array.init n (fun dc ->
        let hooks_dc =
          {
            Datacenter.ship_payload =
              (fun ~dst payload ->
                let size = payload.Proxy.value.Kvstore.Value.size_bytes + Label.size_bytes in
                Stats.Meta_bytes.record_op meta ~bytes:Label.size_bytes ~fanout:1;
                if Sim.Probe.active () then begin
                  (* closed at [dst] once the payload finishes staging *)
                  let l = payload.Proxy.label in
                  Sim.Span.begin_ ~at:(Sim.Engine.now engine) Sim.Span.Sk_bulk
                    ~origin:l.Label.src_dc ~seq:(Sim.Time.to_us l.Label.ts) ~aux:l.Label.src_gear
                    ~site:l.Label.src_dc ~peer:dst ~epoch:0
                end;
                Sim.Link.send t.bulk.(dc).(dst) ~size_bytes:size (Payload payload));
            epoch = (fun () -> t.epoch);
            emit_label = (fun label -> route_label t dc label);
            on_remote_visible =
              (fun ~key ~origin_dc ~origin_time ~value ->
                hooks.on_visible ~dc ~key ~origin_dc ~origin_time ~value);
            reply = (fun item -> reply t dc item);
          }
        in
        let clock_offset =
          match p.clock_offsets with Some offs -> offs.(dc) | None -> Sim.Time.zero
        in
        Datacenter.create engine ~dc ~n_dcs:n ~partitions:p.partitions ~frontends:p.frontends
          ~cost:p.cost ~rmap:p.rmap ~hooks:hooks_dc ~clock_offset ~registry ?series
          ~proxy_mode:(if p.peer_mode then Proxy.Fallback else Proxy.Stream)
          ());
  t.out_legs <-
    Array.init n_sites (fun _ ->
        Array.init n (fun dc -> Sim.Delay_line.create engine (Datacenter.arrive t.dcs.(dc))));
  t.back_legs <- Array.init n (fun dc -> Array.init n_sites (fun _ -> Sim.Delay_line.create engine (finish t dc)));
  t.bulk <- Array.map (Array.mapi (fun dst w -> Sim.Link.chan w (on_bulk t dst))) bulk_wires;
  if not p.peer_mode then
    t.service <-
      Some
        (Service.create engine ~topo:p.topo ~config:p.config ~interest:(interest_of p)
           ~deliver:(fun ~dc label -> deliver_current t ~dc label)
           ~serializer_replicas:p.serializer_replicas ~registry ?series ~name:"service"
           ~instance:0 ());
  (match series with
  | Some sr ->
    (* datastore-plane wire depth: every inter-dc bulk link, flattened in
       (src, dst) order once at startup *)
    let bulk_links = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto 0 do
        if i <> j then bulk_links := bulk_wires.(i).(j) :: !bulk_links
      done
    done;
    let bulk_links = !bulk_links in
    Stats.Series.sample sr "series.link.bulk.in_flight" (fun () ->
        float_of_int
          (List.fold_left (fun acc l -> acc + Sim.Link.in_flight_count l) 0 bulk_links));
    (* dual-tree overlap: 1 while a reconfiguration is migrating (both trees
       carry traffic), 0 at steady state *)
    Stats.Series.sample sr "series.reconfig.dual_tree" (fun () ->
        if t.switch_at <> None && t.switch_pending_dcs > 0 then 1.0 else 0.0);
    (* drive the sampling clock: ticks only read state and emit no probe
       events, so the trace digest is unchanged by instrumentation *)
    Sim.Engine.periodic engine ~every:(Stats.Series.tick_period sr)
      (fun () -> Stats.Series.tick sr ~now:(Sim.Engine.now engine))
      ~stop:(fun () -> t.stopped)
  | None -> ());
  (* bulk-channel heartbeats: each datacenter periodically promises its gear
     floor to every other datacenter (liveness for attach stabilization and
     for the timestamp fallback) *)
  for dc = 0 to n - 1 do
    Sim.Engine.periodic engine ~every:p.cost.Cost_model.heartbeat_period
      (fun () ->
        (* the epoch is captured at send time, like payload tags; one
           message serves every destination *)
        let beat = Heartbeat { src = dc; epoch = t.epoch; floor = Datacenter.gear_floor t.dcs.(dc) } in
        for dst = 0 to n - 1 do
          if dst <> dc then begin
            Stats.Meta_bytes.record_heartbeat meta ~bytes:heartbeat_wire_bytes;
            Sim.Link.send t.bulk.(dc).(dst) ~size_bytes:heartbeat_wire_bytes beat
          end
        done)
      ~stop:(fun () -> t.stopped)
  done;
  t

(* ---- reconfiguration ---------------------------------------------------- *)

let switch_config t config2 ~graceful =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let now = Sim.Engine.now t.engine in
  Stats.Registry.incr t.switches_counter;
  t.switch_at <- Some now;
  t.switch_pending_dcs <- Array.length t.dcs;
  if Sim.Probe.active () then Sim.Probe.emit ~at:now (Sim.Probe.Switch_begin { epoch; graceful });
  let service2 =
    Service.create t.engine ~topo:t.p.topo ~config:config2 ~interest:(interest_of t.p)
      ~deliver:(fun ~dc label -> deliver_next t ~dc label)
      ~serializer_replicas:t.p.serializer_replicas ~registry:t.registry
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
              let dual_us = Sim.Time.to_us (Sim.Engine.now t.engine) - Sim.Time.to_us t0 in
              Stats.Registry.incr ~by:dual_us t.dual_window_counter
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
  t.stopped <- true;
  Array.iter Datacenter.stop t.dcs;
  Option.iter Service.shutdown t.service;
  Option.iter Service.shutdown t.next_service

let total_updates t = Array.fold_left (fun acc d -> acc + Datacenter.updates_originated d) 0 t.dcs

let total_remote_applied t =
  Array.fold_left (fun acc d -> acc + Datacenter.remote_applied d) 0 t.dcs
