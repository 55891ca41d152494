type session = Common.dt
type version = Common.meta (* (update ts, origin dc) *)

type bulk =
  | Payload of Common.shipped
  | Heartbeat of Sim.Time.t (* the sender's clock floor *)

type dc_state = {
  vv : Sim.Time.t array; (* max ts received from each remote dc *)
  mutable gst : Sim.Time.t;
  pending : Common.shipped Sim.Heap.Keyed.t; (* applied payloads awaiting GST *)
  mutable waiters : (Sim.Time.t * (session, version, bulk) Common.item) list; (* attach waits *)
}

type t = { geo : (session, version, bulk) Common.t; dcs : dc_state array }

let name = "gentlerain"
let fabric t = t.geo
let meta_wire_bytes = 12 (* ts (8) + origin (4): one scalar, as in the paper *)

let finish_stab_round t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  let gst = ref Sim.Time.infinity in
  for src = 0 to n - 1 do
    if src <> dc then gst := Sim.Time.min !gst d.vv.(src)
  done;
  if n > 1 then d.gst <- Sim.Time.max d.gst !gst;
  if Sim.Probe.active () then
    Sim.Probe.stab_round ~at:(Sim.Engine.now (Common.engine geo)) ~dc ~gst:(Sim.Time.to_us d.gst);
  (* flush newly-stable remote updates *)
  Common.flush_stable geo ~dc d.pending ~stable:d.gst;
  d.waiters <-
    Common.release geo d.waiters ~ready:(fun (ts, _) -> Sim.Time.compare ts d.gst <= 0)

let raise_vv t ~dst ~src ts =
  let d = t.dcs.(dst) in
  if Sim.Time.compare ts d.vv.(src) > 0 then begin
    d.vv.(src) <- ts;
    Common.vec_advance t.geo ~dc:dst ~src ts
  end

let deliver t ~src ~dst = function
  | Heartbeat floor -> raise_vv t ~dst ~src floor
  | Payload u as b ->
    raise_vv t ~dst ~src (fst u.Common.meta);
    Common.submit t.geo ~dc:dst ~part:u.part
      ~cost_us:
        (Saturn.Cost_model.gentlerain_apply_us (Common.cost t.geo)
           ~size_bytes:u.value.Kvstore.Value.size_bytes)
      (Common.Apply b)

let apply t ~dc ~part = function
  | Payload u ->
    Common.park t.geo ~dc ~part t.dcs.(dc).pending u
  | Heartbeat _ -> invalid_arg "Gentlerain: a heartbeat is not applied"

let payload u = Payload u

let write t (s : session) ~dc ~part ~key value =
  Common.write_stamped t.geo ~dc ~part ~key value ~floor:s.Common.dt
    ~header_bytes:meta_wire_bytes ~meta_bytes:meta_wire_bytes payload

let attach t (s : session) ~dc item =
  let d = t.dcs.(dc) in
  if Sim.Time.compare s.Common.dt d.gst <= 0 then Common.reply t.geo item
  else d.waiters <- (s.Common.dt, item) :: d.waiters

let create ~observer engine p hooks =
  let geo = Common.create ~observer ~name engine p hooks ~cmp:Common.compare_meta ~session:Common.new_dt in
  let n = Common.n_dcs geo in
  let dcs =
    Array.init n (fun _ ->
        { vv = Array.make n Sim.Time.zero; gst = Sim.Time.zero; pending = Common.stable_queue ();
          waiters = [] })
  in
  let t = { geo; dcs } in
  Common.pending_gauge geo (fun dc -> Sim.Heap.Keyed.size t.dcs.(dc).pending);
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = attach t;
      read_us = Saturn.Cost_model.gentlerain_read_us cost;
      stamp_read = Common.no_stamp;
      learn_read = Common.learn_read_dt;
      write_us = (fun _ ~size_bytes -> Saturn.Cost_model.gentlerain_write_us cost ~size_bytes);
      write = write t;
      learn_write = Common.learn_write_dt;
      apply = apply t;
      deliver = deliver t;
    };
  (* heartbeats: every dc promises its clock floor to every other dc *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.heartbeat_period (fun () ->
        Saturn.Fabric.broadcast (Common.shared geo) ~src:dc ~size_bytes:meta_wire_bytes
          ~heartbeat:true
          (Heartbeat (Saturn.Fabric.floor (Common.shared geo) ~dc)))
  done;
  (* the stabilization mechanism, every 5 ms as in the authors' setup; the
     GST only advances once every partition has finished its aggregation
     task, so a loaded server delays stabilization — the effect the paper
     observes in Cure's and GentleRain's measured visibility *)
  Common.stab_rounds geo ~cost_us:(Saturn.Cost_model.gentlerain_stab_us cost) (finish_stab_round t);
  t
