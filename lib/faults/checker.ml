type violation = { at : Sim.Time.t; what : string }

type report = {
  violations : violation list;
  commits : int;
  resends : int;
  drops_cut : int;
  drops_down : int;
  head_changes : int;
  fallback_activations : int;
  switches : int;
}

type t = {
  mutable violations : violation list; (* newest first *)
  (* (epoch, serializer, origin) -> last committed per-origin seq; epoch-2
     serializer ids and per-origin uid counters both restart at 0, so the
     exactly-once/FIFO key must carry the epoch to stay collision-free
     across the migration window *)
  commit_seq : (int * int * int, int) Hashtbl.t;
  (* dc -> last sink-emitted ts *)
  sink_ts : (int, int) Hashtbl.t;
  (* (dc, src_dc) -> last applied ts *)
  apply_ts : (int * int, int) Hashtbl.t;
  (* (dc, src_dc, ts, gear) -> () — old/new tree races must not install one
     label twice *)
  applied : (int * int * int * int, unit) Hashtbl.t;
  (* origin dc -> highest tree epoch its labels have entered: a sink never
     routes back into an older tree *)
  route_epoch : (int, int) Hashtbl.t;
  (* origin dc -> (epoch the marker closed, marker oseq): the epoch-change
     marker must be the last label the origin pushed through the old tree *)
  marker_oseq : (int, int * int) Hashtbl.t;
  (* (dc, src) -> last version-vector entry: baselines emit Vec_advance
     only when the entry strictly advances, so equality is a violation *)
  vec_ts : (int * int, int) Hashtbl.t;
  (* epochs announced by Switch_begin; (dc, epoch) pairs already done *)
  switch_epochs : (int, unit) Hashtbl.t;
  switch_done : (int * int, unit) Hashtbl.t;
  mutable commits : int;
  mutable resends : int;
  mutable drops_cut : int;
  mutable drops_down : int;
  mutable head_changes : int;
  mutable fallbacks : int;
  mutable switches : int;
  (* the event loop pops its keyed heap in (time, scheduling-seq) order, so
     the step stream must be strictly increasing under that lexicographic
     key — anything else means the engine replayed or reordered work.
     Kept as two ints and a flag: an option would allocate per step *)
  mutable step_seen : bool;
  mutable last_us : int;
  mutable last_seq : int;
  (* every delivered or dropped message was first sent: the running link
     conservation law [delivers + drops <= sends] *)
  mutable link_sends : int;
  mutable link_delivers : int;
  mutable link_drops : int;
}

let create () =
  {
    violations = [];
    commit_seq = Hashtbl.create 64;
    sink_ts = Hashtbl.create 8;
    apply_ts = Hashtbl.create 16;
    applied = Hashtbl.create 64;
    route_epoch = Hashtbl.create 8;
    marker_oseq = Hashtbl.create 8;
    vec_ts = Hashtbl.create 16;
    switch_epochs = Hashtbl.create 4;
    switch_done = Hashtbl.create 8;
    commits = 0;
    resends = 0;
    drops_cut = 0;
    drops_down = 0;
    head_changes = 0;
    fallbacks = 0;
    switches = 0;
    step_seen = false;
    last_us = 0;
    last_seq = 0;
    link_sends = 0;
    link_delivers = 0;
    link_drops = 0;
  }

let flag c at what = c.violations <- { at; what } :: c.violations

let check_marker_last c at ~what ~origin ~oseq ~epoch =
  match Hashtbl.find_opt c.marker_oseq origin with
  | Some (closed_epoch, mseq) when epoch = closed_epoch && oseq > mseq ->
    flag c at
      (Printf.sprintf
         "epoch-%d %s after marker: origin dc%d seq %d follows epoch-change marker seq %d" epoch
         what origin oseq mseq)
  | _ -> ()

let link_conserved c at =
  if c.link_delivers + c.link_drops > c.link_sends then
    flag c at
      (Printf.sprintf "link conservation violated: %d delivered + %d dropped > %d sent"
         c.link_delivers c.link_drops c.link_sends)

let step c at (ev : Sim.Probe.event) =
  match ev with
  | Sim.Probe.Engine_step { seq } ->
    let us = Sim.Time.to_us at in
    if c.step_seen && (us < c.last_us || (us = c.last_us && seq <= c.last_seq)) then
      flag c at
        (Printf.sprintf "event loop order regression: step (t=%dus, seq %d) after (t=%dus, seq %d)"
           us seq c.last_us c.last_seq);
    c.step_seen <- true;
    c.last_us <- us;
    c.last_seq <- seq
  | Sim.Probe.Link_send { size_bytes } ->
    c.link_sends <- c.link_sends + 1;
    if size_bytes < 0 then
      flag c at (Printf.sprintf "link send with negative size: %d bytes" size_bytes)
  | Sim.Probe.Link_deliver ->
    c.link_delivers <- c.link_delivers + 1;
    link_conserved c at
  | Sim.Probe.Serializer_hop { from_ser; to_ser } ->
    if from_ser = to_ser then
      flag c at (Printf.sprintf "serializer self-hop: ser%d forwarded to itself" from_ser)
  | Sim.Probe.Serializer_deliver { dc } ->
    if dc < 0 then flag c at (Printf.sprintf "serializer egress toward invalid dc%d" dc)
  | Sim.Probe.Delay_wait { serializer; us } ->
    if us < 0 then
      flag c at (Printf.sprintf "negative artificial delay at ser%d: %dus" serializer us)
  | Sim.Probe.Chain_ack { seq } ->
    if seq < 0 then flag c at (Printf.sprintf "chain ack for invalid seq %d" seq)
  | Sim.Probe.Vec_advance { dc; src; ts } ->
    (match Hashtbl.find_opt c.vec_ts (dc, src) with
    | Some prev when ts <= prev ->
      flag c at
        (Printf.sprintf "version vector regression at dc%d: entry for dc%d moved %d -> %d" dc src
           prev ts)
    | _ -> ());
    Hashtbl.replace c.vec_ts (dc, src) ts
  | Sim.Probe.Switch_done { dc; epoch } ->
    if not (Hashtbl.mem c.switch_epochs epoch) then
      flag c at
        (Printf.sprintf "dc%d finished migrating to epoch %d that no Switch_begin announced" dc
           epoch)
    else if Hashtbl.mem c.switch_done (dc, epoch) then
      flag c at (Printf.sprintf "dc%d finished migrating to epoch %d twice" dc epoch)
    else Hashtbl.replace c.switch_done (dc, epoch) ()
  | Sim.Probe.Ser_commit { ser; origin; oseq; epoch } -> (
    c.commits <- c.commits + 1;
    check_marker_last c at ~what:"commit" ~origin ~oseq ~epoch;
    match Hashtbl.find_opt c.commit_seq (epoch, ser, origin) with
    | Some prev when oseq = prev ->
      flag c at
        (Printf.sprintf "duplicate commit at ser%d: origin dc%d seq %d committed twice" ser origin
           oseq)
    | Some prev when oseq < prev ->
      flag c at
        (Printf.sprintf "FIFO violation at ser%d: origin dc%d seq %d after seq %d" ser origin oseq
           prev)
    | _ -> Hashtbl.replace c.commit_seq (epoch, ser, origin) oseq)
  | Sim.Probe.Label_forward { dc; gear; ts = _; oseq; inst = _; epoch } ->
    (match Hashtbl.find_opt c.route_epoch dc with
    | Some max_e when epoch < max_e ->
      flag c at
        (Printf.sprintf "route regression at dc%d: label entered epoch-%d tree after epoch-%d" dc
           epoch max_e)
    | Some max_e when epoch > max_e -> Hashtbl.replace c.route_epoch dc epoch
    | Some _ -> ()
    | None -> Hashtbl.replace c.route_epoch dc epoch);
    if gear = Saturn.Label.marker_gear then begin
      if Hashtbl.mem c.marker_oseq dc then
        flag c at (Printf.sprintf "duplicate epoch-change marker from origin dc%d" dc)
      else Hashtbl.replace c.marker_oseq dc (epoch, oseq)
    end
    else if oseq >= 0 then check_marker_last c at ~what:"forward" ~origin:dc ~oseq ~epoch
  | Sim.Probe.Sink_emit { dc; ts } ->
    (match Hashtbl.find_opt c.sink_ts dc with
    | Some prev when ts < prev ->
      flag c at (Printf.sprintf "sink order violation at dc%d: ts %d after ts %d" dc ts prev)
    | _ -> ());
    Hashtbl.replace c.sink_ts dc ts
  | Sim.Probe.Proxy_apply { dc; src_dc; ts; gear; fallback = _ } -> (
    if Hashtbl.mem c.applied (dc, src_dc, ts, gear) then
      flag c at
        (Printf.sprintf "duplicate apply at dc%d: label (src dc%d, ts %d, gear %d) installed twice"
           dc src_dc ts gear)
    else Hashtbl.replace c.applied (dc, src_dc, ts, gear) ();
    match Hashtbl.find_opt c.apply_ts (dc, src_dc) with
    | Some prev when ts <= prev ->
      flag c at
        (Printf.sprintf "proxy order violation at dc%d: src dc%d ts %d after ts %d" dc src_dc ts
           prev)
    | _ -> Hashtbl.replace c.apply_ts (dc, src_dc) ts)
  | Sim.Probe.Fifo_resend _ -> c.resends <- c.resends + 1
  | Sim.Probe.Link_drop { in_flight } ->
    if in_flight then c.drops_cut <- c.drops_cut + 1 else c.drops_down <- c.drops_down + 1;
    c.link_drops <- c.link_drops + 1;
    link_conserved c at
  | Sim.Probe.Head_change _ -> c.head_changes <- c.head_changes + 1
  | Sim.Probe.Proxy_mode { mode = Sim.Probe.Fallback; _ } -> c.fallbacks <- c.fallbacks + 1
  | Sim.Probe.Switch_begin { epoch; graceful = _ } ->
    c.switches <- c.switches + 1;
    Hashtbl.replace c.switch_epochs epoch ()
  | _ -> ()

let report c =
  {
    violations = List.rev c.violations;
    commits = c.commits;
    resends = c.resends;
    drops_cut = c.drops_cut;
    drops_down = c.drops_down;
    head_changes = c.head_changes;
    fallback_activations = c.fallbacks;
    switches = c.switches;
  }

let analyze probe =
  let c = create () in
  Sim.Probe.iter probe (step c);
  report c

let ok (r : report) = r.violations = []

let pp fmt (r : report) =
  Format.fprintf fmt
    "@[<v>commits=%d resends=%d drops(cut)=%d drops(down)=%d head-changes=%d fallbacks=%d switches=%d@,"
    r.commits r.resends r.drops_cut r.drops_down r.head_changes r.fallback_activations r.switches;
  (match r.violations with
  | [] -> Format.fprintf fmt "invariants: OK"
  | vs ->
    Format.fprintf fmt "invariants: %d VIOLATION(S)" (List.length vs);
    List.iter (fun v -> Format.fprintf fmt "@,  t=%dus %s" (Sim.Time.to_us v.at) v.what) vs);
  Format.fprintf fmt "@]"
