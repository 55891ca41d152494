type hooks = {
  ship_payload : dst:int -> Proxy.payload -> unit;
  emit_label : Label.t -> unit;
  on_remote_visible : key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
}

type t = {
  engine : Sim.Engine.t;
  dc : int;
  cost : Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  hooks : hooks;
  partitioning : Kvstore.Partitioning.t;
  clock : Sim.Clock.t;
  servers : (unit -> unit) Sim.Server.t array; (* items are continuations *)
  stores : (Label.t, int) Kvstore.Store.t array;
  gears : Gear.t array;
  frontends : (unit -> unit) Sim.Server.t array;
  mutable next_frontend : int;
  mutable next_gear : int;
  sink : Sink.t;
  mutable proxy : Proxy.t;
  updates_counter : Stats.Registry.counter;
  mutable stopped : bool;
}

let proxy t = t.proxy

let responsible t ~key = Kvstore.Partitioning.responsible t.partitioning ~key
let store_of_key t ~key = t.stores.(responsible t ~key)

let gear_floor t =
  Array.fold_left (fun acc g -> Sim.Time.min acc (Gear.floor g)) Sim.Time.infinity t.gears

(* staging pays the remote-apply service time when the payload arrives;
   installation later flips visibility at the payload's position in the
   causal serialization *)
let stage_remote t (p : Proxy.payload) ~k =
  match p.label.Label.target with
  | Label.Update { key } ->
    let part = responsible t ~key in
    let cost =
      Sim.Time.of_us (Cost_model.saturn_apply_us t.cost ~size_bytes:p.value.Kvstore.Value.size_bytes)
    in
    Sim.Server.submit t.servers.(part) ~cost k
  | Label.Migration _ | Label.Epoch_change _ ->
    (* only update payloads travel on the bulk channel *)
    assert false

let install_remote t (p : Proxy.payload) =
  match p.label.Label.target with
  | Label.Update { key } ->
    let part = responsible t ~key in
    let _ = Kvstore.Store.put_if_newer t.stores.(part) ~cmp:Label.compare ~key p.value p.label in
    t.hooks.on_remote_visible ~key ~origin_dc:p.label.Label.src_dc ~origin_time:p.origin_time
      ~value:p.value
  | Label.Migration _ | Label.Epoch_change _ -> assert false

let run k = k ()

let create engine ~dc ~n_dcs ~partitions ~frontends ~cost ~rmap ~hooks ?(clock_offset = Sim.Time.zero)
    ?registry ?series ?(proxy_mode = Proxy.Stream) () =
  let registry = match registry with Some r -> r | None -> Stats.Registry.create () in
  let clock = Sim.Clock.create ~offset:clock_offset engine in
  let gears = Array.init partitions (fun gear_id -> Gear.create clock ~dc ~gear_id) in
  let sink =
    Sink.create engine ~gears ~period:cost.Cost_model.sink_period ~emit:(fun l -> hooks.emit_label l)
      ~registry ?series ~name:(Printf.sprintf "sink.dc%d" dc) ()
  in
  let t =
    {
      engine;
      dc;
      cost;
      rmap;
      hooks;
      partitioning = Kvstore.Partitioning.create ~partitions;
      clock;
      servers = Array.init partitions (fun _ -> Sim.Server.create engine run);
      stores = Array.init partitions (fun _ -> Kvstore.Store.create ());
      gears;
      frontends = Array.init frontends (fun _ -> Sim.Server.create engine run);
      next_frontend = 0;
      next_gear = 0;
      sink;
      proxy =
        Proxy.create engine ~dc ~n_dcs
          ~stage_update:(fun _ ~k -> k ())
          ~install_update:(fun _ -> ())
          ~registry ~mode:proxy_mode ();
      updates_counter = Stats.Registry.counter registry (Printf.sprintf "dc%d.updates_originated" dc);
      stopped = false;
    }
  in
  (* tie the proxy's staging/install back to the datacenter's servers; only
     this real proxy registers series gauges — the placeholder above must
     not claim the names *)
  t.proxy <-
    Proxy.create engine ~dc ~n_dcs
      ~stage_update:(fun p ~k -> stage_remote t p ~k)
      ~install_update:(fun p -> install_remote t p)
      ~registry ?series ~mode:proxy_mode ();
  (* long-running deployments: bound the proxy's applied-label bookkeeping *)
  Sim.Engine.periodic engine ~every:(Sim.Time.of_sec 10.) (fun () -> Proxy.compact t.proxy)
    ~stop:(fun () -> t.stopped);
  t

let via_frontend t k =
  let fe = t.frontends.(t.next_frontend) in
  t.next_frontend <- (t.next_frontend + 1) mod Array.length t.frontends;
  Sim.Server.submit fe ~cost:(Sim.Time.of_us t.cost.Cost_model.frontend_us) k

let attach t ~client_label ~k =
  via_frontend t (fun () ->
      match client_label with
      | None -> k ()
      | Some (label : Label.t) ->
        if label.Label.src_dc = t.dc then k ()
        else begin
          match label.Label.target with
          | Label.Migration { dest_dc } when dest_dc = t.dc && Proxy.mode t.proxy = Proxy.Stream ->
            (* the fast path needs the tree to deliver the migration label;
               in fallback/peer mode only timestamp stabilization works *)
            Proxy.wait_for_label t.proxy label k
          | Label.Migration _ | Label.Update _ | Label.Epoch_change _ ->
            Proxy.wait_for_ts t.proxy label.Label.ts k
        end)

let read t ~key ~k =
  via_frontend t (fun () ->
      let part = responsible t ~key in
      (* read cost depends on the stored value's size *)
      let size =
        match Kvstore.Store.get t.stores.(part) ~key with
        | Some (v, _) -> v.Kvstore.Value.size_bytes
        | None -> 0
      in
      let cost = Sim.Time.of_us (Cost_model.saturn_read_us t.cost ~size_bytes:size) in
      Sim.Server.submit t.servers.(part) ~cost (fun () -> k (Kvstore.Store.get t.stores.(part) ~key)))

let update t ~key ~value ~client_ts ~k =
  via_frontend t (fun () ->
      let part = responsible t ~key in
      let cost =
        Sim.Time.of_us (Cost_model.saturn_write_us t.cost ~size_bytes:value.Kvstore.Value.size_bytes)
      in
      Sim.Server.submit t.servers.(part) ~cost (fun () ->
          let gear = t.gears.(part) in
          let ts = Gear.generate_ts gear ~client_ts in
          let label = Label.update ~ts ~src_dc:t.dc ~src_gear:part ~key in
          Kvstore.Store.put t.stores.(part) ~key value label;
          Stats.Registry.incr t.updates_counter;
          let origin_time = Sim.Engine.now t.engine in
          for i = 0 to Kvstore.Replica_map.degree t.rmap ~key - 1 do
            let dst = Kvstore.Replica_map.replica t.rmap ~key i in
            if dst <> t.dc then
              (* epoch 0 placeholder: the ship hook stamps the system's
                 current epoch on the way out *)
              t.hooks.ship_payload ~dst { Proxy.label; value; origin_time; epoch = 0 }
          done;
          Sink.offer t.sink label;
          k label))

let migrate t ~dest_dc ~client_ts ~k =
  via_frontend t (fun () ->
      let part = t.next_gear in
      t.next_gear <- (t.next_gear + 1) mod Array.length t.gears;
      let cost = Sim.Time.of_us t.cost.Cost_model.scalar_meta_us in
      Sim.Server.submit t.servers.(part) ~cost (fun () ->
          let gear = t.gears.(part) in
          let ts = Gear.generate_ts gear ~client_ts in
          let label = Label.migration ~ts ~src_dc:t.dc ~src_gear:part ~dest_dc in
          Sink.offer t.sink label;
          k label))

let emit_epoch_label t ~epoch =
  let gear = t.gears.(0) in
  let ts = Gear.generate_ts gear ~client_ts:Sim.Time.zero in
  let label = Label.epoch_change ~ts ~src_dc:t.dc ~epoch in
  Sink.offer t.sink label;
  label

let bump_clock t d = Sim.Clock.bump t.clock d

let stop t =
  t.stopped <- true;
  Sink.stop t.sink
let updates_originated t = Stats.Registry.counter_value t.updates_counter
let remote_applied t = Proxy.applied_updates t.proxy
