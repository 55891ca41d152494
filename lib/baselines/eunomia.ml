type session = Common.dt
type version = Common.meta (* (update ts, origin dc) *)

type bulk =
  | Payload of Common.shipped
  | Announce of Sim.Time.t (* the sender's announced stable ts *)

type dc_state = {
  seq : (unit -> unit) Sim.Server.t; (* the intra-DC sequencer: its own server, not storage *)
  mutable seq_up : bool;
  mutable announced : Sim.Time.t; (* own sequencer's last announced stable ts *)
  stable : Sim.Time.t array; (* stable.(src): src's announced stable ts, as received here *)
  mutable gst : Sim.Time.t;
  pending : Common.shipped Sim.Heap.Keyed.t; (* applied payloads awaiting GST *)
  mutable waiters : (Sim.Time.t * (session, version, bulk) Common.item) list; (* attach waits *)
}

type t = { geo : (session, version, bulk) Common.t; dcs : dc_state array }

let name = "eunomia"
let fabric t = t.geo
let meta_wire_bytes = 12 (* ts (8) + origin (4): one scalar, as in GentleRain *)
let announce_wire_bytes = 12 (* stable ts (8) + sequencer dc (4) *)
let failover_window = Sim.Time.of_ms 100 (* backup sequencer takeover *)

(* Recompute dc's GST from the announced stable times and flush every
   pending remote update it now covers. Unlike GentleRain this runs on
   announcement receipt, not in a storage-server stabilization round: the
   storage servers never pay for stabilization. *)
let advance t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  let gst = ref Sim.Time.infinity in
  for src = 0 to n - 1 do
    if src <> dc then gst := Sim.Time.min !gst d.stable.(src)
  done;
  if n > 1 && Sim.Time.compare !gst d.gst > 0 then begin
    d.gst <- !gst;
    if Sim.Probe.active () then
      Sim.Probe.stab_round ~at:(Sim.Engine.now (Common.engine geo)) ~dc ~gst:(Sim.Time.to_us d.gst)
  end;
  Common.flush_stable geo ~dc d.pending ~stable:d.gst;
  d.waiters <-
    Common.release geo d.waiters ~ready:(fun (ts, _) -> Sim.Time.compare ts d.gst <= 0)

(* The sequencer announces its stable timestamp to every remote DC. The
   floor is read in the same engine callback that ships it, and every
   issued timestamp was shipped in the callback that issued it, so on the
   FIFO bulk link an announcement never overtakes a payload it covers. *)
let announce t dc =
  let geo = t.geo in
  let d = t.dcs.(dc) in
  let floor = Saturn.Fabric.floor (Common.shared geo) ~dc in
  if Sim.Time.compare floor d.announced > 0 then d.announced <- floor;
  Saturn.Fabric.broadcast (Common.shared geo) ~src:dc ~size_bytes:announce_wire_bytes
    ~heartbeat:false
    (Announce d.announced)

let deliver t ~src ~dst = function
  | Announce stable ->
    let dd = t.dcs.(dst) in
    if Sim.Time.compare stable dd.stable.(src) > 0 then begin
      dd.stable.(src) <- stable;
      Common.vec_advance t.geo ~dc:dst ~src stable
    end;
    advance t dst
  | Payload u as b ->
    Common.submit t.geo ~dc:dst ~part:u.Common.part
      ~cost_us:
        (Saturn.Cost_model.eunomia_apply_us (Common.cost t.geo)
           ~size_bytes:u.value.Kvstore.Value.size_bytes)
      (Common.Apply b)

let apply t ~dc ~part = function
  | Payload u ->
    Common.park t.geo ~dc ~part t.dcs.(dc).pending u;
    (* the covering announcement may already have arrived while this
       payload sat in the apply queue — flush immediately rather than
       waiting a full period for the next one *)
    advance t dc
  | Announce _ -> invalid_arg "Eunomia: an announcement is not applied"

let seq_noted () = ()
let payload u = Payload u

let write t (s : session) ~dc ~part ~key value =
  (* asynchronous sequencer notification: load on the sequencer, zero
     extra latency or cost on the client path *)
  Sim.Server.submit t.dcs.(dc).seq
    ~cost:(Sim.Time.of_us (Saturn.Cost_model.eunomia_seq_us (Common.cost t.geo)))
    seq_noted;
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
        {
          seq = Sim.Server.create engine (fun k -> k ());
          seq_up = true;
          announced = Sim.Time.zero;
          stable = Array.make n Sim.Time.zero;
          gst = Sim.Time.zero;
          pending = Common.stable_queue ();
          waiters = [];
        })
  in
  let t = { geo; dcs } in
  Common.pending_gauge geo (fun dc -> Sim.Heap.Keyed.size t.dcs.(dc).pending);
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = attach t;
      read_us = Saturn.Cost_model.eunomia_read_us cost;
      stamp_read = Common.no_stamp;
      learn_read = Common.learn_read_dt;
      write_us = (fun _ ~size_bytes -> Saturn.Cost_model.eunomia_write_us cost ~size_bytes);
      write = write t;
      learn_write = Common.learn_write_dt;
      apply = apply t;
      deliver = deliver t;
    };
  (* the whole stabilization mechanism lives on the sequencer: every period
     it pays the aggregation cost on its own server and announces. No
     heartbeats — announcements carry the liveness floor. *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.stabilization_period (fun () ->
        let d = t.dcs.(dc) in
        if d.seq_up then
          Sim.Server.submit d.seq
            ~cost:(Sim.Time.of_us (Saturn.Cost_model.eunomia_stab_us cost))
            (fun () -> if t.dcs.(dc).seq_up && not (Common.stopped geo) then announce t dc))
  done;
  t

let sequencer_down t ~dc = not t.dcs.(dc).seq_up

let sequencer_crash t ~dc =
  let d = t.dcs.(dc) in
  if d.seq_up then begin
    d.seq_up <- false;
    (* the backup sequencer takes over after the failover window; announced
       state is durable (it is derived from the gear floors), so the backup
       resumes from the current floor at its next round *)
    Sim.Engine.schedule (Common.engine t.geo) ~delay:failover_window (fun () ->
        if not (Common.stopped t.geo) then d.seq_up <- true)
  end
