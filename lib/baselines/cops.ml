type version = Common.meta (* (ts, origin dc) *)

module Int_map = Map.Make (Int)

(* a client's context: an explicit dependency set, one version per key. A
   persistent map, so an update's dependency list is the map it read, in
   key order, with nothing copied or sorted *)
type session = { mutable ctx : version Int_map.t }

type pending = {
  key : int;
  value : Kvstore.Value.t;
  version : version;
  deps : version Int_map.t;
  n_deps : int;
  origin_time : Sim.Time.t;
}

type bulk = pending

type t = {
  geo : (session, version, bulk) Common.t;
  prune_on_write : bool;
  pending : pending list array; (* per dc *)
  mutable deps_shipped : int;
  mutable updates_shipped : int;
  mutable max_deps : int;
}

let name = "cops"
let fabric t = t.geo

let add_dep s key version =
  match Int_map.find key s.ctx with
  | existing when Common.compare_meta existing version >= 0 -> ()
  | _ | (exception Not_found) -> s.ctx <- Int_map.add key version s.ctx

(* a dependency is satisfied when the local replica holds that version or a
   newer one; dependencies on keys this datacenter does not replicate are
   uncheckable (the paper's partial-replication problem) and are skipped *)
let dep_satisfied t ~dc key version =
  if not (Kvstore.Replica_map.replicates (Common.params t.geo).Common.rmap ~dc ~key) then true
  else begin
    let part = Common.partition_of t.geo ~key in
    match Kvstore.Store.get (Common.store t.geo ~dc ~part) ~key with
    | Some (_, v) -> Common.compare_meta v version >= 0
    | None -> false
  end

let ready t ~dc pn = Int_map.for_all (dep_satisfied t ~dc) pn.deps

let install t ~dc pn =
  Common.install t.geo ~dc ~part:(Common.partition_of t.geo ~key:pn.key) ~key:pn.key pn.value
    pn.version ~origin_dc:(snd pn.version) ~origin_time:pn.origin_time

let rec drain_pending t ~dc =
  let ready, still = List.partition (ready t ~dc) t.pending.(dc) in
  t.pending.(dc) <- still;
  if ready <> [] then begin
    List.iter (install t ~dc) ready;
    drain_pending t ~dc
  end

let apply t ~dc ~part:_ pn =
  if ready t ~dc pn then begin
    install t ~dc pn;
    drain_pending t ~dc
  end
  else t.pending.(dc) <- pn :: t.pending.(dc)

let dep_cost t n_deps = n_deps * (Common.cost t.geo).Saturn.Cost_model.scalar_meta_us

let deliver t ~src:_ ~dst pn =
  let cost_us =
    Saturn.Cost_model.eventual_apply_us (Common.cost t.geo)
      ~size_bytes:pn.value.Kvstore.Value.size_bytes
    + dep_cost t pn.n_deps
  in
  Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key:pn.key) ~cost_us
    (Common.Apply pn)

let write t s ~dc ~part ~key value =
  let geo = t.geo in
  let deps = s.ctx in
  let n_deps = Int_map.cardinal deps in
  let ts = Common.gen_ts geo ~dc ~part ~floor:Sim.Time.zero in
  let version = (ts, dc) in
  Kvstore.Store.put (Common.store geo ~dc ~part) ~key value version;
  let origin_time = Sim.Engine.now (Common.engine geo) in
  t.deps_shipped <- t.deps_shipped + n_deps;
  t.updates_shipped <- t.updates_shipped + 1;
  t.max_deps <- max t.max_deps n_deps;
  (* 16 bytes of version header (excluded from causal-metadata accounting,
     as everywhere) + 16 per (key, version) dep *)
  Common.ship_update geo ~dc ~key ~part ~ts ~spans:false
    ~size_bytes:(value.Kvstore.Value.size_bytes + (16 * (1 + n_deps)))
    ~meta_bytes:(16 * n_deps)
    { key; value; version; deps; n_deps; origin_time };
  (* transitivity-based pruning: sound only under full replication *)
  if t.prune_on_write then s.ctx <- Int_map.empty;
  add_dep s key version;
  ts

let create ?series ?meta engine p hooks ~prune_on_write =
  let geo =
    Common.create ?series ?meta engine p hooks ~cmp:Common.compare_meta ~session:(fun () ->
        { ctx = Int_map.empty })
  in
  let t =
    { geo; prune_on_write; pending = Array.make (Common.n_dcs geo) []; deps_shipped = 0;
      updates_shipped = 0; max_deps = 0 }
  in
  Common.pending_gauge geo series (fun dc -> List.length t.pending.(dc));
  let cost = p.Common.cost in
  Common.bind geo
    {
      Common.attach = Common.attach_now geo;
      read_us = Saturn.Cost_model.eventual_read_us cost;
      stamp_read = Common.no_stamp;
      learn_read = (fun s ~key ~part:_ version ~stamp:_ -> add_dep s key version);
      write_us =
        (fun s ~size_bytes ->
          Saturn.Cost_model.eventual_write_us cost ~size_bytes
          + dep_cost t (Int_map.cardinal s.ctx));
      write = write t;
      learn_write = (fun s ~dc ~key ts -> add_dep s key (ts, dc));
      apply = apply t;
      deliver = deliver t;
    };
  t

let mean_dependency_size t =
  if t.updates_shipped = 0 then 0.
  else float_of_int t.deps_shipped /. float_of_int t.updates_shipped

let max_dependency_size t = t.max_deps
