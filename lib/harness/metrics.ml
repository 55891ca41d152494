type t = {
  engine : Sim.Engine.t;
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  bulk_factor : float;
  mutable start_at : Sim.Time.t;
  mutable end_at : Sim.Time.t;
  visibility : Stats.Sample.t;
  extra : Stats.Sample.t;
  pairs : Stats.Sample.t option array; (* [origin * n_dcs + dest], made on first use *)
  count : Stats.Registry.counter option;
  mutable observers :
    (dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit) list;
}

let create ?(bulk_factor = 1.0) ?registry engine ~topo ~dc_sites =
  {
    engine;
    topo;
    dc_sites;
    bulk_factor;
    start_at = Sim.Time.zero;
    end_at = Sim.Time.infinity;
    visibility = Stats.Sample.create ();
    extra = Stats.Sample.create ();
    pairs = Array.make (Array.length dc_sites * Array.length dc_sites) None;
    count = Option.map (fun r -> Stats.Registry.counter r "metrics.visible_in_window") registry;
    observers = [];
  }

let set_window t ~start_at ~end_at =
  t.start_at <- start_at;
  t.end_at <- end_at

let in_window t =
  let now = Sim.Engine.now t.engine in
  Sim.Time.compare now t.start_at >= 0 && Sim.Time.compare now t.end_at <= 0

let pair_visibility t ~origin ~dest =
  let n = Array.length t.dc_sites in
  if origin < 0 || origin >= n || dest < 0 || dest >= n then
    invalid_arg "Metrics.pair_visibility: no such datacenter";
  let i = (origin * n) + dest in
  match t.pairs.(i) with
  | Some s -> s
  | None ->
    let s = Stats.Sample.create () in
    t.pairs.(i) <- Some s;
    s

let subscribe t f = t.observers <- f :: t.observers

let rec notify observers ~dc ~key ~origin_dc ~origin_time ~value =
  match observers with
  | [] -> ()
  | f :: rest ->
    f ~dc ~key ~origin_dc ~origin_time ~value;
    notify rest ~dc ~key ~origin_dc ~origin_time ~value

let on_visible t ~dc ~key ~origin_dc ~origin_time ~value =
  notify t.observers ~dc ~key ~origin_dc ~origin_time ~value;
  if in_window t then begin
    let now = Sim.Engine.now t.engine in
    let latency = Sim.Time.sub now origin_time in
    let optimal =
      Saturn.Fabric.bulk_latency ~bulk_factor:t.bulk_factor
        (Sim.Topology.latency t.topo t.dc_sites.(origin_dc) t.dc_sites.(dc))
    in
    Option.iter Stats.Registry.incr t.count;
    Stats.Sample.add_time t.visibility latency;
    Stats.Sample.add_us t.extra (Sim.Time.to_us (Sim.Time.sub latency optimal));
    Stats.Sample.add_time (pair_visibility t ~origin:origin_dc ~dest:dc) latency
  end

let visibility t = t.visibility
let extra_visibility t = t.extra
let visible_count t = Stats.Sample.count t.visibility
