type params = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  bulk_factor : float;
}

let default_params ~topo ~dc_sites ~rmap =
  { topo; dc_sites; partitions = 4; frontends = 2; cost = Cost_model.default; rmap; bulk_factor = 1.0 }

type hooks = {
  on_visible :
    dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
}

let no_hooks = { on_visible = (fun ~dc:_ ~key:_ ~origin_dc:_ ~origin_time:_ ~value:_ -> ()) }

let bulk_latency ~bulk_factor lat =
  Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. bulk_factor))

type ('c, 'i, 'b) handlers = {
  arrive : 'c -> dc:int -> 'i -> unit;
  front : 'c -> dc:int -> 'i -> unit;
  serve : 'c -> dc:int -> part:int -> 'i -> unit;
  finish : 'c -> dc:int -> 'i -> unit;
  deliver : 'c -> src:int -> dst:int -> 'b -> unit;
}

module Int_tbl = Hashtbl.Make (Int)

(* Every queue is typed: the legs, frontends and servers carry the
   system's items, the bulk channels its messages. Each queue's handler is
   one closure made at [create]. Behind each storage server sit its
   partition's store and gear; a datacenter's gears share its clock. *)
type ('s, 'v, 'i, 'b) t = {
  engine : Sim.Engine.t;
  p : params;
  hooks : hooks;
  meta : Stats.Meta_bytes.t;
  cmp : 'v -> 'v -> int; (* the system's version order, for [install] *)
  partitioning : Kvstore.Partitioning.t;
  clocks : Sim.Clock.t array; (* per dc *)
  gears : Gear.t array array; (* [dc].[partition] *)
  stores : ('v, int) Kvstore.Store.t array array; (* [dc].[partition] *)
  leg_latency : Sim.Time.t array array; (* [home site].[dc], one way *)
  mutable out_legs : 'i Sim.Delay_line.t array array; (* [home site].[dc] *)
  mutable back_legs : 'i Sim.Delay_line.t array array; (* [dc].[home site] *)
  mutable frontends : 'i Sim.Server.t array array; (* [dc].[frontend] *)
  next_frontend : int array; (* per dc, round-robin *)
  mutable servers : 'i Sim.Server.t array array; (* [dc].[partition] *)
  wires : Sim.Link.t array array; (* [src].[dst]; diagonal unused *)
  mutable bulk : 'b Sim.Link.chan array array; (* the wires' channels *)
  sessions : 's Int_tbl.t; (* client id -> session, int equality per op *)
  new_session : home:Sim.Topology.site -> 's;
  mutable stopped : bool;
}

(* a request reaches its datacenter: the system's arrival step, then
   frontend service time, round-robin *)
let enter t h c ~dc item =
  h.arrive c ~dc item;
  let fe = t.next_frontend.(dc) in
  t.next_frontend.(dc) <- (fe + 1) mod t.p.frontends;
  Sim.Server.submit t.frontends.(dc).(fe) ~cost:(Sim.Time.of_us t.p.cost.Cost_model.frontend_us) item

let create engine p h hooks ~meta ~cmp ~session make =
  let n = Array.length p.dc_sites in
  let n_sites = Sim.Topology.n_sites p.topo in
  let clocks = Array.init n (fun _ -> Sim.Clock.create engine) in
  let t =
    {
      engine;
      p;
      hooks;
      meta;
      cmp;
      partitioning = Kvstore.Partitioning.create ~partitions:p.partitions;
      clocks;
      gears =
        Array.init n (fun dc ->
            Array.init p.partitions (fun gear_id -> Gear.create clocks.(dc) ~dc ~gear_id));
      stores = Array.init n (fun _ -> Array.init p.partitions (fun _ -> Kvstore.Store.create ()));
      leg_latency =
        Array.init n_sites (fun home ->
            Array.map
              (fun site ->
                if home = site then Sim.Time.of_us p.cost.Cost_model.intra_dc_us
                else Sim.Topology.latency p.topo home site)
              p.dc_sites);
      out_legs = [||];
      back_legs = [||];
      frontends = [||];
      next_frontend = Array.make n 0;
      servers = [||];
      wires =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let lat = Sim.Topology.latency p.topo p.dc_sites.(i) p.dc_sites.(j) in
                Sim.Link.create engine ~latency:(bulk_latency ~bulk_factor:p.bulk_factor lat) ()));
      bulk = [||];
      sessions = Int_tbl.create 256;
      new_session = session;
      stopped = false;
    }
  in
  let c = make t in
  t.out_legs <-
    Array.init n_sites (fun _ ->
        Array.init n (fun dc -> Sim.Delay_line.create engine (fun item -> enter t h c ~dc item)));
  t.back_legs <-
    Array.init n (fun dc ->
        Array.init n_sites (fun _ -> Sim.Delay_line.create engine (fun item -> h.finish c ~dc item)));
  t.frontends <-
    Array.init n (fun dc ->
        Array.init p.frontends (fun _ -> Sim.Server.create engine (fun item -> h.front c ~dc item)));
  t.servers <-
    Array.init n (fun dc ->
        Array.init p.partitions (fun part ->
            Sim.Server.create engine (fun item -> h.serve c ~dc ~part item)));
  t.bulk <-
    Array.mapi
      (fun src row -> Array.mapi (fun dst w -> Sim.Link.chan w (fun b -> h.deliver c ~src ~dst b)) row)
      t.wires;
  c

let params t = t.p
let engine t = t.engine
let n_dcs t = Array.length t.p.dc_sites

let session t ~client ~home =
  match Int_tbl.find t.sessions client with
  | s -> s
  | exception Not_found ->
    let s = t.new_session ~home in
    Int_tbl.replace t.sessions client s;
    s

let send t ~home ~dc item =
  let at = Sim.Time.add (Sim.Engine.now t.engine) t.leg_latency.(home).(dc) in
  Sim.Delay_line.push t.out_legs.(home).(dc) ~at item

let reply t ~home ~dc item =
  let at = Sim.Time.add (Sim.Engine.now t.engine) t.leg_latency.(home).(dc) in
  Sim.Delay_line.push t.back_legs.(dc).(home) ~at item

let submit t ~dc ~part ~cost item = Sim.Server.submit t.servers.(dc).(part) ~cost item

(* ---- storage ------------------------------------------------------------- *)

let partition t ~key = Kvstore.Partitioning.responsible t.partitioning ~key
let store t ~dc ~part = t.stores.(dc).(part)
let gears t ~dc = t.gears.(dc)
let stamp t ~dc ~part ~floor = Gear.generate_ts t.gears.(dc).(part) ~client_ts:floor

let floor t ~dc =
  Array.fold_left (fun acc g -> Sim.Time.min acc (Gear.floor g)) Sim.Time.infinity t.gears.(dc)

let bump_clock t ~dc d = Sim.Clock.bump t.clocks.(dc) d
let value t ~dc ~key = Option.map fst (Kvstore.Store.get t.stores.(dc).(partition t ~key) ~key)

let install t ~dc ~key value v ~origin_dc ~origin_time =
  let _ = Kvstore.Store.put_if_newer t.stores.(dc).(partition t ~key) ~cmp:t.cmp ~key value v in
  t.hooks.on_visible ~dc ~key ~origin_dc ~origin_time ~value

(* ---- bulk messages --------------------------------------------------------- *)

let ship t ~src ~dst ~size_bytes b = Sim.Link.send t.bulk.(src).(dst) ~size_bytes b

let ship_update t ~dc ~key ~part ~ts ~spans ~size_bytes ~meta_bytes b =
  let rmap = t.p.rmap in
  let fanout = ref 0 in
  for i = 0 to Kvstore.Replica_map.degree rmap ~key - 1 do
    let dst = Kvstore.Replica_map.replica rmap ~key i in
    if dst <> dc then begin
      incr fanout;
      if spans && Sim.Probe.active () then
        Sim.Span.begin_ ~at:(Sim.Engine.now t.engine) Sim.Span.Sk_bulk ~origin:dc
          ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst ~epoch:0;
      ship t ~src:dc ~dst ~size_bytes b
    end
  done;
  Stats.Meta_bytes.record_op t.meta ~bytes:meta_bytes ~fanout:!fanout

let broadcast t ~src ~size_bytes ~heartbeat b =
  for dst = 0 to n_dcs t - 1 do
    if dst <> src then begin
      if heartbeat then Stats.Meta_bytes.record_heartbeat t.meta ~bytes:size_bytes
      else Stats.Meta_bytes.record_stabilization t.meta ~bytes:size_bytes;
      ship t ~src ~dst ~size_bytes b
    end
  done

let bulk_link t ~src ~dst =
  if src = dst then invalid_arg "Fabric.bulk_link: src = dst";
  t.wires.(src).(dst)

let every t period f = Sim.Engine.periodic t.engine ~every:period f ~stop:(fun () -> t.stopped)

let add_in_flight acc row = Array.fold_left (fun acc l -> acc + Sim.Link.in_flight_count l) acc row

let drive_series t sr =
  (* datastore-plane wire depth over every bulk wire (the diagonal carries
     nothing) *)
  Stats.Series.sample sr "series.link.bulk.in_flight" (fun () ->
      float_of_int (Array.fold_left add_in_flight 0 t.wires));
  (* drive the sampling clock: ticks only read state and emit no probe
     events, so the trace digest is unchanged by instrumentation *)
  every t (Stats.Series.tick_period sr) (fun () -> Stats.Series.tick sr ~now:(Sim.Engine.now t.engine))

let stop t = t.stopped <- true
let stopped t = t.stopped
