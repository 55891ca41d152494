type session = Common.dt
type version = Common.meta (* (hybrid ts, origin dc) *)

type bulk =
  | Payload of Common.shipped
  | Row of Sim.Time.t array (* the sender's own matrix row *)

type dc_state = {
  known : Sim.Time.t array array; (* known.(i).(k): what DC i has received from k *)
  mutable ust : Sim.Time.t; (* min over the whole matrix *)
  pending : Common.shipped Sim.Heap.Keyed.t; (* applied payloads awaiting UST *)
  mutable waiters : (Sim.Time.t * (session, version, bulk) Common.item) list; (* attach waits *)
}

type t = { geo : (session, version, bulk) Common.t; dcs : dc_state array }

let name = "okapi"
let fabric t = t.geo

(* hybrid timestamp (physical 8 + logical 4) + origin (4) + dependency
   cut (8): a constant, between GentleRain's scalar and Cure's vector *)
let meta_wire_bytes = 24

(* one matrix row: n scalar entries (8 each) + row owner (4) *)
let row_wire_bytes n = (8 * n) + 4

(* Recompute dc's UST from its matrix and flush every pending remote
   update it now covers: UST ≥ ts means every DC has received everything
   up to ts, so installing in timestamp order cannot skip a dependency. *)
let advance t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  let ust = ref Sim.Time.infinity in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      ust := Sim.Time.min !ust d.known.(i).(k)
    done
  done;
  if n > 1 && Sim.Time.compare !ust d.ust > 0 then d.ust <- !ust;
  Common.flush_stable geo ~dc d.pending ~stable:d.ust;
  d.waiters <-
    Common.release geo d.waiters ~ready:(fun (ts, _) -> Sim.Time.compare ts d.ust <= 0)

(* Merge a broadcast of src's own matrix row into dst's matrix. The row's
   diagonal entry is src's announced floor: merging it into dst's own row
   is safe because any payload below the floor was shipped before the row
   on the same FIFO link. *)
let merge_row t ~dst ~src row =
  let d = t.dcs.(dst) in
  Array.iteri
    (fun k x -> if Sim.Time.compare x d.known.(src).(k) > 0 then d.known.(src).(k) <- x)
    row;
  if Sim.Time.compare row.(src) d.known.(dst).(src) > 0 then begin
    d.known.(dst).(src) <- row.(src);
    Common.vec_advance t.geo ~dc:dst ~src row.(src)
  end;
  advance t dst

let finish_stab_round t dc =
  let geo = t.geo in
  let d = t.dcs.(dc) in
  let floor = Common.dc_floor geo ~dc in
  if Sim.Time.compare floor d.known.(dc).(dc) > 0 then d.known.(dc).(dc) <- floor;
  if Sim.Probe.active () then
    Sim.Probe.stab_round ~at:(Sim.Engine.now (Common.engine geo)) ~dc ~gst:(Sim.Time.to_us d.ust);
  Common.broadcast geo ~src:dc ~size_bytes:(row_wire_bytes (Common.n_dcs geo)) ~heartbeat:false
    (Row (Array.copy d.known.(dc)));
  advance t dc

let deliver t ~src ~dst = function
  | Row row -> merge_row t ~dst ~src row
  | Payload u as b ->
    let dd = t.dcs.(dst) in
    let ts = fst u.Common.meta in
    if Sim.Time.compare ts dd.known.(dst).(src) > 0 then begin
      dd.known.(dst).(src) <- ts;
      Common.vec_advance t.geo ~dc:dst ~src ts
    end;
    Common.submit t.geo ~dc:dst ~part:u.part
      ~cost_us:
        (Saturn.Cost_model.okapi_apply_us (Common.cost t.geo)
           ~size_bytes:u.value.Kvstore.Value.size_bytes)
      (Common.Apply b)

let apply t ~dc ~part = function
  | Payload u ->
    Common.park t.geo ~dc ~part t.dcs.(dc).pending u;
    advance t dc
  | Row _ -> invalid_arg "Okapi: a matrix row is not applied"

let payload u = Payload u

let write t (s : session) ~dc ~part ~key value =
  Common.write_stamped t.geo ~dc ~part ~key value ~floor:s.Common.dt
    ~header_bytes:meta_wire_bytes ~meta_bytes:meta_wire_bytes payload

let attach t (s : session) ~dc item =
  let d = t.dcs.(dc) in
  if Sim.Time.compare s.Common.dt d.ust <= 0 then Common.reply t.geo item
  else d.waiters <- (s.Common.dt, item) :: d.waiters

let create ~observer engine p hooks =
  let geo = Common.create ~observer ~name engine p hooks ~cmp:Common.compare_meta ~session:Common.new_dt in
  let n = Common.n_dcs geo in
  let dcs =
    Array.init n (fun _ ->
        { known = Array.init n (fun _ -> Array.make n Sim.Time.zero); ust = Sim.Time.zero;
          pending = Common.stable_queue (); waiters = [] })
  in
  let t = { geo; dcs } in
  Common.pending_gauge geo (fun dc -> Sim.Heap.Keyed.size t.dcs.(dc).pending);
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = attach t;
      read_us = Saturn.Cost_model.okapi_read_us cost;
      stamp_read = Common.no_stamp;
      learn_read = Common.learn_read_dt;
      write_us = (fun _ ~size_bytes -> Saturn.Cost_model.okapi_write_us cost ~size_bytes);
      write = write t;
      learn_write = Common.learn_write_dt;
      apply = apply t;
      deliver = deliver t;
    };
  (* stable-time rounds: like Cure the round only completes once every
     partition has finished its (cheaper, one-entry) aggregation task; the
     completed round broadcasts this DC's matrix row. No heartbeats. *)
  Common.stab_rounds geo ~cost_us:(Saturn.Cost_model.okapi_stab_us cost) (finish_stab_round t);
  t
