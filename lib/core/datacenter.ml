type session = { home : Sim.Topology.site; mutable past : Label.t option }

let session ~home = { home; past = None }

let observe s label =
  match s.past with
  | None -> s.past <- Some label
  | Some current -> if Label.compare label current > 0 then s.past <- Some label

type op =
  | Attach of (unit -> unit)
  | Read of (Kvstore.Value.t option -> unit)
  | Update of (unit -> unit)
  | Update_with_label of (Label.t -> unit)
  | Migrate of { dest_dc : int; k : unit -> unit }

type item =
  | Request of {
      op : op;
      session : session;
      key : int;
      mutable value : Kvstore.Value.t; (* the update's value; a read's result *)
      mutable past : Label.t option; (* the client's causal past on arrival *)
      mutable label : Label.t; (* the minted label; a read's version label *)
      mutable hit : bool; (* a read found the key *)
    }
  | Stage of Proxy.payload

(* what a bulk wire carries: a shipped update or a heartbeat promise, each
   stamped with the sender's epoch at send time *)
type bulk =
  | Payload of Proxy.payload
  | Heartbeat of { src : int; epoch : int; floor : Sim.Time.t }

type hooks = { epoch : unit -> int; emit_label : Label.t -> unit }

let no_value = Kvstore.Value.make ~payload:0 ~size_bytes:0
let no_label = Label.update ~ts:Sim.Time.zero ~src_dc:0 ~src_gear:0 ~key:0

let request op session ~key ~value =
  Request { op; session; key; value; past = None; label = no_label; hit = false }

let not_a_request () = invalid_arg "Datacenter: not a client request"

type t = {
  engine : Sim.Engine.t;
  dc : int;
  cost : Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  hooks : hooks;
  fabric : (session, Label.t, item, bulk) Fabric.t;
  mutable next_gear : int;
  sink : Sink.t;
  proxy : Proxy.t;
  updates_counter : Stats.Registry.counter;
  mutable stopped : bool;
}

let proxy t = t.proxy
let past_ts = function Some (l : Label.t) -> l.Label.ts | None -> Sim.Time.zero
let submit t ~part ~cost item = Fabric.submit t.fabric ~dc:t.dc ~part ~cost item

(* a served request leaves for its client *)
let reply t item =
  match item with
  | Request r -> Fabric.reply t.fabric ~home:r.session.home ~dc:t.dc item
  | Stage _ -> not_a_request ()

(* staging pays the remote-apply service time when the payload arrives;
   installation later flips visibility at the payload's position in the
   causal serialization *)
let stage_remote t (p : Proxy.payload) =
  match p.label.Label.target with
  | Label.Update { key } ->
    let part = Fabric.partition t.fabric ~key in
    let cost =
      Sim.Time.of_us (Cost_model.saturn_apply_us t.cost ~size_bytes:p.value.Kvstore.Value.size_bytes)
    in
    submit t ~part ~cost (Stage p)
  | Label.Migration _ | Label.Epoch_change _ ->
    (* only update payloads travel on the bulk channel *)
    assert false

let install_remote t (p : Proxy.payload) =
  match p.label.Label.target with
  | Label.Update { key } ->
    Fabric.install t.fabric ~dc:t.dc ~key p.value p.label ~origin_dc:p.label.Label.src_dc
      ~origin_time:p.origin_time
  | Label.Migration _ | Label.Epoch_change _ -> assert false

(* Algorithm 1 ATTACH, at frontend completion: a locally generated (or
   empty) causal past replies at once; otherwise the reply waits for the
   migration label's application or for per-source stabilization (the
   cold path that still allocates its closure) *)
let attach t item = function
  | None -> reply t item
  | Some (label : Label.t) ->
    if label.Label.src_dc = t.dc then reply t item
    else begin
      let reply () = reply t item in
      match label.Label.target with
      | Label.Migration { dest_dc } when dest_dc = t.dc && Proxy.mode t.proxy = Proxy.Stream ->
        (* the fast path needs the tree to deliver the migration label;
           in fallback/peer mode only timestamp stabilization works *)
        Proxy.wait_for_label t.proxy label reply
      | Label.Migration _ | Label.Update _ | Label.Epoch_change _ ->
        Proxy.wait_for_ts t.proxy label.Label.ts reply
    end

(* Algorithm 2 UPDATE. One payload serves every remote replica, stamped
   with the sender's epoch at send time: the drain barrier relies on
   per-channel FIFO, so a tag read at delivery time would claim too much. *)
let mint_update t ~part ~key ~value ~past =
  let ts = Fabric.stamp t.fabric ~dc:t.dc ~part ~floor:(past_ts past) in
  let label = Label.update ~ts ~src_dc:t.dc ~src_gear:part ~key in
  Kvstore.Store.put (Fabric.store t.fabric ~dc:t.dc ~part) ~key value label;
  Stats.Registry.incr t.updates_counter;
  (* a key with no remote replica builds no payload *)
  if Kvstore.Replica_map.mask t.rmap ~key land lnot (1 lsl t.dc) <> 0 then
    (* each bulk span closes at its destination once the payload finishes
       staging *)
    Fabric.ship_update t.fabric ~dc:t.dc ~key ~part ~ts ~spans:true
      ~size_bytes:(value.Kvstore.Value.size_bytes + Label.size_bytes)
      ~meta_bytes:Label.size_bytes
      (Payload
         { Proxy.label; value; origin_time = Sim.Engine.now t.engine; epoch = t.hooks.epoch () });
  Sink.offer t.sink label;
  label

(* a frontend's completion: attach replies, the rest move on to their
   storage server *)
let front t item =
  match item with
  | Request r -> (
    match r.op with
    | Attach _ -> attach t item r.past
    | Read _ ->
      let part = Fabric.partition t.fabric ~key:r.key in
      let size = Kvstore.Store.value_size (Fabric.store t.fabric ~dc:t.dc ~part) ~key:r.key in
      let cost = Sim.Time.of_us (Cost_model.saturn_read_us t.cost ~size_bytes:size) in
      submit t ~part ~cost item
    | Update _ | Update_with_label _ ->
      let cost =
        Sim.Time.of_us (Cost_model.saturn_write_us t.cost ~size_bytes:r.value.Kvstore.Value.size_bytes)
      in
      submit t ~part:(Fabric.partition t.fabric ~key:r.key) ~cost item
    | Migrate _ ->
      let part = t.next_gear in
      t.next_gear <- (t.next_gear + 1) mod (Fabric.params t.fabric).Fabric.partitions;
      submit t ~part ~cost:(Sim.Time.of_us t.cost.Cost_model.scalar_meta_us) item)
  | Stage _ -> not_a_request ()

(* a storage server's completion: the read, the Algorithm 2 update or
   migration, or a remote payload's staging *)
let serve t ~part item =
  match item with
  | Request r ->
    (match r.op with
    | Read _ -> (
      match Kvstore.Store.find (Fabric.store t.fabric ~dc:t.dc ~part) ~key:r.key with
      | v, l ->
        r.value <- v;
        r.label <- l;
        r.hit <- true
      | exception Not_found -> r.hit <- false)
    | Update _ | Update_with_label _ ->
      r.label <- mint_update t ~part ~key:r.key ~value:r.value ~past:r.past
    | Migrate { dest_dc; _ } ->
      let ts = Fabric.stamp t.fabric ~dc:t.dc ~part ~floor:(past_ts r.past) in
      let label = Label.migration ~ts ~src_dc:t.dc ~src_gear:part ~dest_dc in
      Sink.offer t.sink label;
      r.label <- label
    | Attach _ -> not_a_request ());
    reply t item
  | Stage p -> Proxy.staged t.proxy p

let deliver t = function
  | Payload payload -> Proxy.on_payload t.proxy payload
  | Heartbeat { src; epoch; floor } -> Proxy.on_heartbeat t.proxy ~src ~epoch floor

let create engine ~dc ~fabric ~hooks ~observer ~proxy_mode =
  let { Fabric.cost; rmap; _ } = Fabric.params fabric in
  let n_dcs = Fabric.n_dcs fabric in
  let sink =
    Sink.create engine ~gears:(Fabric.gears fabric ~dc) ~period:cost.Cost_model.sink_period
      ~emit:(fun l -> hooks.emit_label l)
      ~observer ~name:(Printf.sprintf "sink.dc%d" dc) ()
  in
  (* the proxy stages and installs through the datacenter built around it *)
  let self = ref None in
  let through_self f p = f (Option.get !self) p in
  let t =
    {
      engine;
      dc;
      cost;
      rmap;
      hooks;
      fabric;
      next_gear = 0;
      sink;
      proxy =
        Proxy.create engine ~dc ~n_dcs ~stage_update:(through_self stage_remote)
          ~install_update:(through_self install_remote) ~observer ~mode:proxy_mode ();
      updates_counter =
        Stats.Registry.counter observer.Stats.Observer.registry
          (Printf.sprintf "dc%d.updates_originated" dc);
      stopped = false;
    }
  in
  self := Some t;
  (* long-running deployments: bound the proxy's applied-label bookkeeping *)
  Sim.Engine.periodic engine ~every:(Sim.Time.of_sec 10.) (fun () -> Proxy.compact t.proxy)
    ~stop:(fun () -> t.stopped);
  t

(* a request reaches the datacenter: it takes the client's causal past
   with it to the frontend *)
let arrive = function
  | Request r -> r.past <- r.session.past
  | Stage _ -> not_a_request ()

let emit_epoch_label t ~epoch =
  let ts = Fabric.stamp t.fabric ~dc:t.dc ~part:0 ~floor:Sim.Time.zero in
  let label = Label.epoch_change ~ts ~src_dc:t.dc ~epoch in
  Sink.offer t.sink label;
  label

let stop t =
  t.stopped <- true;
  Sink.stop t.sink
let updates_originated t = Stats.Registry.counter_value t.updates_counter
let remote_applied t = Proxy.applied_updates t.proxy
