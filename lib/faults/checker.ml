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

(* The checker's keys are ints and small tuples of ints: hash them with
   integer arithmetic and compare them field by field, where the
   polymorphic [Hashtbl] would call [caml_hash] and [compare_val] on every
   commit, apply, sink emit and label forward. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash (a, b) = (a * 31) + b
end)

module Triple_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = Int.equal a1 a2 && Int.equal b1 b2 && Int.equal c1 c2
  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end)

module Quad_tbl = Hashtbl.Make (struct
  type t = int * int * int * int

  let equal (a1, b1, c1, d1) (a2, b2, c2, d2) =
    Int.equal a1 a2 && Int.equal b1 b2 && Int.equal c1 c2 && Int.equal d1 d2

  let hash (a, b, c, d) = (((((a * 31) + b) * 31) + c) * 31) + d
end)

type t = {
  mutable violations : violation list; (* newest first *)
  (* (epoch, serializer, origin) -> last committed per-origin seq; epoch-2
     serializer ids and per-origin uid counters both restart at 0, so the
     exactly-once/FIFO key must carry the epoch to stay collision-free
     across the migration window *)
  commit_seq : int Triple_tbl.t;
  (* dc -> last sink-emitted ts *)
  sink_ts : int Int_tbl.t;
  (* (dc, src_dc) -> last applied ts *)
  apply_ts : int Pair_tbl.t;
  (* (dc, src_dc, ts, gear) -> () — old/new tree races must not install one
     label twice *)
  applied : unit Quad_tbl.t;
  (* origin dc -> highest tree epoch its labels have entered: a sink never
     routes back into an older tree *)
  route_epoch : int Int_tbl.t;
  (* origin dc -> (epoch the marker closed, marker oseq): the epoch-change
     marker must be the last label the origin pushed through the old tree *)
  marker_oseq : (int * int) Int_tbl.t;
  (* (dc, src) -> last version-vector entry: baselines emit Vec_advance
     only when the entry strictly advances, so equality is a violation *)
  vec_ts : int Pair_tbl.t;
  (* epochs announced by Switch_begin; (dc, epoch) pairs already done *)
  switch_epochs : unit Int_tbl.t;
  switch_done : unit Pair_tbl.t;
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
    commit_seq = Triple_tbl.create 64;
    sink_ts = Int_tbl.create 8;
    apply_ts = Pair_tbl.create 16;
    applied = Quad_tbl.create 64;
    route_epoch = Int_tbl.create 8;
    marker_oseq = Int_tbl.create 8;
    vec_ts = Pair_tbl.create 16;
    switch_epochs = Int_tbl.create 4;
    switch_done = Pair_tbl.create 8;
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
  match Int_tbl.find c.marker_oseq origin with
  | closed_epoch, mseq when epoch = closed_epoch && oseq > mseq ->
    flag c at
      (Printf.sprintf
         "epoch-%d %s after marker: origin dc%d seq %d follows epoch-change marker seq %d" epoch
         what origin oseq mseq)
  | _ | (exception Not_found) -> ()

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
    let key = (dc, src) in
    (match Pair_tbl.find c.vec_ts key with
    | prev when ts <= prev ->
      flag c at
        (Printf.sprintf "version vector regression at dc%d: entry for dc%d moved %d -> %d" dc src
           prev ts)
    | _ | (exception Not_found) -> ());
    Pair_tbl.replace c.vec_ts key ts
  | Sim.Probe.Switch_done { dc; epoch } ->
    if not (Int_tbl.mem c.switch_epochs epoch) then
      flag c at
        (Printf.sprintf "dc%d finished migrating to epoch %d that no Switch_begin announced" dc
           epoch)
    else if Pair_tbl.mem c.switch_done (dc, epoch) then
      flag c at (Printf.sprintf "dc%d finished migrating to epoch %d twice" dc epoch)
    else Pair_tbl.add c.switch_done (dc, epoch) ()
  | Sim.Probe.Ser_commit { ser; origin; oseq; epoch } -> (
    c.commits <- c.commits + 1;
    check_marker_last c at ~what:"commit" ~origin ~oseq ~epoch;
    let key = (epoch, ser, origin) in
    match Triple_tbl.find c.commit_seq key with
    | prev when oseq = prev ->
      flag c at
        (Printf.sprintf "duplicate commit at ser%d: origin dc%d seq %d committed twice" ser origin
           oseq)
    | prev when oseq < prev ->
      flag c at
        (Printf.sprintf "FIFO violation at ser%d: origin dc%d seq %d after seq %d" ser origin oseq
           prev)
    | _ | (exception Not_found) -> Triple_tbl.replace c.commit_seq key oseq)
  | Sim.Probe.Label_forward { dc; gear; ts = _; oseq; inst = _; epoch } ->
    (match Int_tbl.find c.route_epoch dc with
    | max_e when epoch < max_e ->
      flag c at
        (Printf.sprintf "route regression at dc%d: label entered epoch-%d tree after epoch-%d" dc
           epoch max_e)
    | max_e when epoch > max_e -> Int_tbl.replace c.route_epoch dc epoch
    | _ -> ()
    | exception Not_found -> Int_tbl.replace c.route_epoch dc epoch);
    if gear = Saturn.Label.marker_gear then begin
      if Int_tbl.mem c.marker_oseq dc then
        flag c at (Printf.sprintf "duplicate epoch-change marker from origin dc%d" dc)
      else Int_tbl.add c.marker_oseq dc (epoch, oseq)
    end
    else if oseq >= 0 then check_marker_last c at ~what:"forward" ~origin:dc ~oseq ~epoch
  | Sim.Probe.Sink_emit { dc; ts } ->
    (match Int_tbl.find c.sink_ts dc with
    | prev when ts < prev ->
      flag c at (Printf.sprintf "sink order violation at dc%d: ts %d after ts %d" dc ts prev)
    | _ | (exception Not_found) -> ());
    Int_tbl.replace c.sink_ts dc ts
  | Sim.Probe.Proxy_apply { dc; src_dc; ts; gear; fallback = _ } -> (
    let label = (dc, src_dc, ts, gear) in
    if Quad_tbl.mem c.applied label then
      flag c at
        (Printf.sprintf "duplicate apply at dc%d: label (src dc%d, ts %d, gear %d) installed twice"
           dc src_dc ts gear)
    else Quad_tbl.add c.applied label ();
    let key = (dc, src_dc) in
    match Pair_tbl.find c.apply_ts key with
    | prev when ts <= prev ->
      flag c at
        (Printf.sprintf "proxy order violation at dc%d: src dc%d ts %d after ts %d" dc src_dc ts
           prev)
    | _ | (exception Not_found) -> Pair_tbl.replace c.apply_ts key ts)
  | Sim.Probe.Fifo_resend _ -> c.resends <- c.resends + 1
  | Sim.Probe.Link_drop { in_flight } ->
    if in_flight then c.drops_cut <- c.drops_cut + 1 else c.drops_down <- c.drops_down + 1;
    c.link_drops <- c.link_drops + 1;
    link_conserved c at
  | Sim.Probe.Head_change _ -> c.head_changes <- c.head_changes + 1
  | Sim.Probe.Proxy_mode { mode = Sim.Probe.Fallback; _ } -> c.fallbacks <- c.fallbacks + 1
  | Sim.Probe.Switch_begin { epoch; graceful = _ } ->
    c.switches <- c.switches + 1;
    Int_tbl.replace c.switch_epochs epoch ()
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
