type session = Sim.Time.t array (* the client's dependency vector *)
type version = { vc : Sim.Time.t array; origin : int }

(* last-writer-wins on (commit timestamp, origin) *)
let compare_version a b =
  match Sim.Time.compare a.vc.(a.origin) b.vc.(b.origin) with
  | 0 -> Int.compare a.origin b.origin
  | c -> c

type shipped = {
  key : int;
  value : Kvstore.Value.t;
  meta : version;
  part : int;
  origin_time : Sim.Time.t;
}

type bulk =
  | Payload of shipped
  | Heartbeat of Sim.Time.t (* the sender's clock floor *)

type dc_state = {
  vv : Sim.Time.t array;
  gsv : Sim.Time.t array; (* snapshot taken at stabilization rounds *)
  mutable pending : shipped list;
  mutable waiters : (Sim.Time.t array * (session, version, bulk) Common.item) list;
}

type t = { geo : (session, version, bulk) Common.t; dcs : dc_state array }

let name = "cure"
let fabric t = t.geo
let vector_wire_bytes n = (8 * n) + 4

let dominated ~except v ~by =
  let ok = ref true in
  Array.iteri (fun j x -> if j <> except && Sim.Time.compare x by.(j) > 0 then ok := false) v;
  !ok

let finish_stab_round t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  for src = 0 to n - 1 do
    if src <> dc then d.gsv.(src) <- Sim.Time.max d.gsv.(src) d.vv.(src)
  done;
  (* the local entry is always stable: local updates are applied at commit
     time *)
  d.gsv.(dc) <- Sim.Time.max d.gsv.(dc) (Common.dc_floor geo ~dc);
  if Sim.Probe.active () then begin
    (* the stable snapshot is summarized by its oldest entry, matching the
       scalar GST of the GentleRain probe *)
    let oldest = ref Sim.Time.infinity in
    Array.iter (fun x -> oldest := Sim.Time.min !oldest x) d.gsv;
    Sim.Probe.stab_round ~at:(Sim.Engine.now (Common.engine geo)) ~dc ~gst:(Sim.Time.to_us !oldest)
  end;
  (* a remote update is visible once the GSV dominates its dependency
     vector on every entry but its own *)
  let visible, still =
    List.partition (fun u -> dominated ~except:u.meta.origin u.meta.vc ~by:d.gsv) d.pending
  in
  d.pending <- still;
  List.iter
    (fun u ->
      if Sim.Probe.active () then
        Sim.Span.end_
          ~at:(Sim.Engine.now (Common.engine geo))
          Sim.Span.Sk_stab ~origin:u.meta.origin
          ~seq:(Sim.Time.to_us u.meta.vc.(u.meta.origin))
          ~aux:u.part ~site:dc ~peer:(-1) ~epoch:0;
      Common.install geo ~dc ~part:u.part ~key:u.key u.value u.meta ~origin_dc:u.meta.origin
        ~origin_time:u.origin_time)
    (List.sort (fun a b -> compare_version a.meta b.meta) visible);
  d.waiters <- Common.release geo d.waiters ~ready:(fun (dv, _) -> dominated ~except:dc dv ~by:d.gsv)

let raise_vv t ~dst ~src ts =
  let d = t.dcs.(dst) in
  if Sim.Time.compare ts d.vv.(src) > 0 then begin
    d.vv.(src) <- ts;
    Common.vec_advance t.geo ~dc:dst ~src ts
  end

let deliver t ~src ~dst = function
  | Heartbeat floor -> raise_vv t ~dst ~src floor
  | Payload u as b ->
    raise_vv t ~dst ~src u.meta.vc.(src);
    Common.submit t.geo ~dc:dst ~part:u.part
      ~cost_us:
        (Saturn.Cost_model.cure_apply_us (Common.cost t.geo) ~n_dcs:(Common.n_dcs t.geo)
           ~size_bytes:u.value.Kvstore.Value.size_bytes)
      (Common.Apply b)

let apply t ~dc ~part = function
  | Payload u ->
    let origin = u.meta.origin in
    let ts = u.meta.vc.(origin) in
    if Sim.Probe.active () then begin
      let at = Sim.Engine.now (Common.engine t.geo) in
      Sim.Span.end_ ~at Sim.Span.Sk_bulk ~origin ~seq:(Sim.Time.to_us ts) ~aux:part ~site:origin
        ~peer:dc ~epoch:0;
      (* GSV-domination hold *)
      Sim.Span.begin_ ~at Sim.Span.Sk_stab ~origin ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc
        ~peer:(-1) ~epoch:0
    end;
    let d = t.dcs.(dc) in
    d.pending <- u :: d.pending
  | Heartbeat _ -> invalid_arg "Cure: a heartbeat is not applied"

let write t (dv : session) ~dc ~part ~key value =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let ts = Common.gen_ts geo ~dc ~part ~floor:dv.(dc) in
  let vc = Array.copy dv in
  vc.(dc) <- ts;
  let meta = { vc; origin = dc } in
  Kvstore.Store.put (Common.store geo ~dc ~part) ~key value meta;
  let origin_time = Sim.Engine.now (Common.engine geo) in
  Common.ship_update geo ~dc ~key ~part ~ts ~spans:true
    ~size_bytes:(value.Kvstore.Value.size_bytes + vector_wire_bytes n)
    ~meta_bytes:(vector_wire_bytes n)
    (Payload { key; value; meta; part; origin_time });
  ts

let merge_dv dv vc = Array.iteri (fun j x -> if Sim.Time.compare x dv.(j) > 0 then dv.(j) <- x) vc

(* the written version's vector is the session's own with entry [dc]
   raised to [ts], and a session's entries only grow: merging it back is
   raising that one entry *)
let learn_write dv ~dc ~key:_ ts = if Sim.Time.compare ts dv.(dc) > 0 then dv.(dc) <- ts

let attach t (dv : session) ~dc item =
  let d = t.dcs.(dc) in
  let dv = Array.copy dv in
  if dominated ~except:dc dv ~by:d.gsv then Common.reply t.geo item
  else d.waiters <- (dv, item) :: d.waiters

let create ?series ?meta engine p hooks =
  let n = Array.length p.Saturn.Fabric.dc_sites in
  let geo =
    Common.create ?series ?meta engine p hooks ~cmp:compare_version ~session:(fun () ->
        Array.make n Sim.Time.zero)
  in
  let dcs =
    Array.init n (fun _ ->
        { vv = Array.make n Sim.Time.zero; gsv = Array.make n Sim.Time.zero; pending = [];
          waiters = [] })
  in
  let t = { geo; dcs } in
  Common.pending_gauge geo series (fun dc -> List.length t.dcs.(dc).pending);
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = attach t;
      read_us = Saturn.Cost_model.cure_read_us cost ~n_dcs:n;
      stamp_read = Common.no_stamp;
      learn_read = (fun dv ~key:_ ~part:_ m ~stamp:_ -> merge_dv dv m.vc);
      write_us = (fun _ ~size_bytes -> Saturn.Cost_model.cure_write_us cost ~n_dcs:n ~size_bytes);
      write = write t;
      learn_write;
      apply = apply t;
      deliver = deliver t;
    };
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.heartbeat_period (fun () ->
        Common.broadcast geo ~src:dc ~size_bytes:(vector_wire_bytes n) ~heartbeat:true
          (Heartbeat (Common.dc_floor geo ~dc)))
  done;
  (* the GSV advances only after every partition finishes its aggregation
     task: stabilization pays for its queueing under load *)
  Common.stab_rounds geo ~cost_us:(Saturn.Cost_model.cure_stab_us cost ~n_dcs:n) (finish_stab_round t);
  t
