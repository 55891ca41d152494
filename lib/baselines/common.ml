type params = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  bulk_factor : float;
}

type hooks = {
  on_visible :
    dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
}

type dc_state = {
  servers : Sim.Server.t array;
  frontends : Sim.Server.t array;
  mutable next_frontend : int;
  gears : Saturn.Gear.t array;
}

type t = {
  engine : Sim.Engine.t;
  p : params;
  partitioning : Kvstore.Partitioning.t;
  dcs : dc_state array;
  bulk_wires : Sim.Link.t array array;
  bulk : (unit -> unit) Sim.Link.chan array array; (* the wires' channels *)
  series : Stats.Series.t option;
  mutable is_stopped : bool;
}

(* the baselines ship closures: their bulk channels run what they carry *)
let run k = k ()

let create ?series engine p =
  let n = Array.length p.dc_sites in
  let dcs =
    Array.init n (fun dc ->
        let clock = Sim.Clock.create engine in
        {
          servers = Array.init p.partitions (fun _ -> Sim.Server.create engine);
          frontends = Array.init p.frontends (fun _ -> Sim.Server.create engine);
          next_frontend = 0;
          gears = Array.init p.partitions (fun gear_id -> Saturn.Gear.create clock ~dc ~gear_id);
        })
  in
  let bulk_wires =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let lat =
              if i = j then Sim.Time.zero
              else Sim.Topology.latency p.topo p.dc_sites.(i) p.dc_sites.(j)
            in
            let lat = Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. p.bulk_factor)) in
            Sim.Link.create engine ~latency:lat ()))
  in
  let bulk = Array.map (Array.map (fun w -> Sim.Link.chan w run)) bulk_wires in
  let t =
    { engine; p; partitioning = Kvstore.Partitioning.create ~partitions:p.partitions; dcs;
      bulk_wires; bulk; series; is_stopped = false }
  in
  (match series with
  | Some sr ->
    (* same series names as the Saturn deployment, so queue dynamics are
       directly comparable across systems *)
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
    Sim.Engine.periodic engine ~every:(Stats.Series.tick_period sr)
      (fun () -> Stats.Series.tick sr ~now:(Sim.Engine.now engine))
      ~stop:(fun () -> t.is_stopped)
  | None -> ());
  t

let engine t = t.engine
let n_dcs t = Array.length t.dcs
let params t = t.p
let partition_of t ~key = Kvstore.Partitioning.responsible t.partitioning ~key

let via_frontend t ~dc k =
  let d = t.dcs.(dc) in
  let fe = d.frontends.(d.next_frontend) in
  d.next_frontend <- (d.next_frontend + 1) mod Array.length d.frontends;
  Sim.Server.submit fe ~cost:(Sim.Time.of_us t.p.cost.Saturn.Cost_model.frontend_us) k

let submit t ~dc ~part ~cost_us k =
  Sim.Server.submit t.dcs.(dc).servers.(part) ~cost:(Sim.Time.of_us cost_us) k

let ship t ~src ~dst ~size_bytes k = Sim.Link.send t.bulk.(src).(dst) ~size_bytes k

let bulk_link t ~src ~dst =
  if src = dst then invalid_arg "Common.bulk_link: src = dst";
  t.bulk_wires.(src).(dst)

let gen_ts t ~dc ~part ~floor = Saturn.Gear.generate_ts t.dcs.(dc).gears.(part) ~client_ts:floor

let dc_floor t ~dc =
  Array.fold_left (fun acc g -> Sim.Time.min acc (Saturn.Gear.floor g)) Sim.Time.infinity t.dcs.(dc).gears

let round_trip t ~home ~dc work ~k =
  let dc_site = t.p.dc_sites.(dc) in
  let lat =
    if home = dc_site then Sim.Time.of_us t.p.cost.Saturn.Cost_model.intra_dc_us
    else Sim.Topology.latency t.p.topo home dc_site
  in
  Sim.Engine.schedule t.engine ~delay:lat (fun () ->
      work (fun result -> Sim.Engine.schedule t.engine ~delay:lat (fun () -> k result)))

let every t period f = Sim.Engine.periodic t.engine ~every:period f ~stop:(fun () -> t.is_stopped)
let stop t = t.is_stopped <- true
let stopped t = t.is_stopped
