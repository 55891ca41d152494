type session = unit
type version = Common.meta (* (write ts, origin dc): last-writer-wins order *)
type bulk = Common.shipped

type t = { geo : (session, version, bulk) Common.t }

let name = "eventual"
let fabric t = t.geo

(* the 16 bytes are the LWW (ts, origin) storage-version header every
   protocol ships; they are versioning, not causal metadata, so Meta_bytes
   records this op at 0 *)
let write geo () ~dc ~part ~key value =
  Common.write_stamped geo ~dc ~part ~key value ~floor:Sim.Time.zero ~header_bytes:16
    ~meta_bytes:0 Fun.id

(* visible the instant the payload is applied *)
let apply geo ~dc ~part (u : Common.shipped) =
  let origin, ts = (snd u.meta, fst u.meta) in
  if Sim.Probe.active () then
    Sim.Span.end_ ~at:(Sim.Engine.now (Common.engine geo)) Sim.Span.Sk_bulk ~origin
      ~seq:(Sim.Time.to_us ts) ~aux:part ~site:origin ~peer:dc ~epoch:0;
  Common.install geo ~dc ~key:u.key u.value u.meta ~origin_dc:origin
    ~origin_time:u.origin_time

let deliver geo ~src:_ ~dst (u : Common.shipped) =
  let cost = Common.cost geo in
  Common.submit geo ~dc:dst ~part:u.part
    ~cost_us:(Saturn.Cost_model.eventual_apply_us cost ~size_bytes:u.value.Kvstore.Value.size_bytes)
    (Common.Apply u)

let create ~observer engine p hooks =
  let geo = Common.create ~observer ~name engine p hooks ~cmp:Common.compare_meta ~session:ignore in
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = Common.attach_now geo;
      read_us = Saturn.Cost_model.eventual_read_us cost;
      stamp_read = Common.no_stamp;
      learn_read = Common.forget_read;
      write_us = (fun () ~size_bytes -> Saturn.Cost_model.eventual_write_us cost ~size_bytes);
      write = write geo;
      learn_write = Common.forget_write;
      apply = apply geo;
      deliver = deliver geo;
    };
  { geo }
