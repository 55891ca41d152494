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

(* The checker's keys are up to four ints, kept in flat tables
   ([Sim.Flat_table]): a lookup hashes and compares the key fields in
   place and builds no key tuple. The tables only grow. *)
module Keyed = struct
  type t = Sim.Flat_table.t

  let create = Sim.Flat_table.create
  let find t k0 k1 k2 k3 = Sim.Flat_table.find t k0 k1 k2 k3 0 0 0
  let found = Sim.Flat_table.found
  let value = Sim.Flat_table.value
  let set t i k0 k1 k2 k3 v = Sim.Flat_table.set t i k0 k1 k2 k3 0 0 0 v
  let n = Sim.Flat_table.length
end

(* The labels one datacenter applied from one source, as (ts, gear) pairs
   in ascending order, two ints each in [a.(0 .. 2n - 1)], and the last ts
   applied in order. A clean stream applies a source's labels in
   increasing ts, so adding one compares it with the last pair and
   appends it: two words a label, where a hash set keeps a boxed key and
   a bucket cell per label. Only an out-of-order apply, already a
   violation, pays a binary search and an insert. *)
module Run = struct
  type t = { mutable a : int array; mutable n : int; mutable last_ts : int }

  let create ts = { a = Array.make 16 0; n = 0; last_ts = ts }

  (* the sign of pair [i] against [(ts, gear)] *)
  let cmp r i ts gear =
    let t0 = r.a.(2 * i) in
    if t0 <> ts then Int.compare t0 ts else Int.compare r.a.((2 * i) + 1) gear

  (* adds [(ts, gear)]; false when it was already there *)
  let add r ts gear =
    let lo = ref 0 and hi = ref r.n in
    if r.n > 0 && cmp r (r.n - 1) ts gear < 0 then lo := r.n
    else
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp r mid ts gear < 0 then lo := mid + 1 else hi := mid
      done;
    let i = !lo in
    if i < r.n && cmp r i ts gear = 0 then false
    else begin
      if 2 * (r.n + 1) > Array.length r.a then begin
        let a = Array.make (2 * Array.length r.a) 0 in
        Array.blit r.a 0 a 0 (2 * r.n);
        r.a <- a
      end;
      Array.blit r.a (2 * i) r.a ((2 * i) + 2) (2 * (r.n - i));
      r.a.(2 * i) <- ts;
      r.a.((2 * i) + 1) <- gear;
      r.n <- r.n + 1;
      true
    end
end

type t = {
  mutable violations : violation list; (* newest first *)
  (* (epoch, serializer, origin) -> last committed per-origin seq; epoch-2
     serializer ids and per-origin uid counters both restart at 0, so the
     exactly-once/FIFO key must carry the epoch to stay collision-free
     across the migration window *)
  commit_seq : Keyed.t;
  (* dc -> last sink-emitted ts *)
  sink_ts : Keyed.t;
  (* (dc, src_dc) -> the index in [runs] of the labels dc applied from
     src_dc: old/new tree races must not install one label twice, and
     applies are FIFO per source *)
  sources : Keyed.t;
  mutable runs : Run.t array;
  (* origin dc -> highest tree epoch its labels have entered: a sink never
     routes back into an older tree *)
  route_epoch : Keyed.t;
  (* origin dc -> the epoch its epoch-change marker closed, and the
     marker's oseq: the marker must be the last label the origin pushed
     through the old tree *)
  marker_epoch : Keyed.t;
  marker_oseq : Keyed.t;
  (* (dc, src) -> last version-vector entry: baselines emit Vec_advance
     only when the entry strictly advances, so equality is a violation *)
  vec_ts : Keyed.t;
  (* the set of epochs announced by Switch_begin, and of (dc, epoch)
     pairs already done *)
  switch_epochs : Keyed.t;
  switch_done : Keyed.t;
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
    commit_seq = Keyed.create ();
    sink_ts = Keyed.create ();
    sources = Keyed.create ();
    runs = [||];
    route_epoch = Keyed.create ();
    marker_epoch = Keyed.create ();
    marker_oseq = Keyed.create ();
    vec_ts = Keyed.create ();
    switch_epochs = Keyed.create ();
    switch_done = Keyed.create ();
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
  let i = Keyed.find c.marker_epoch origin 0 0 0 in
  if Keyed.found c.marker_epoch i && Keyed.value c.marker_epoch i = epoch then begin
    let mseq = Keyed.value c.marker_oseq (Keyed.find c.marker_oseq origin 0 0 0) in
    if oseq > mseq then
      flag c at
        (Printf.sprintf
           "epoch-%d %s after marker: origin dc%d seq %d follows epoch-change marker seq %d" epoch
           what origin oseq mseq)
  end

let link_conserved c at =
  if c.link_delivers + c.link_drops > c.link_sends then
    flag c at
      (Printf.sprintf "link conservation violated: %d delivered + %d dropped > %d sent"
         c.link_delivers c.link_drops c.link_sends)

module Kind = Sim.Probe.Kind

(* fields per kind: see [Sim.Probe.view] *)
let step c at (v : Sim.Probe.view) =
  match v.kind with
  | Kind.Engine_step ->
    let seq = v.f0 in
    let us = Sim.Time.to_us at in
    if c.step_seen && (us < c.last_us || (us = c.last_us && seq <= c.last_seq)) then
      flag c at
        (Printf.sprintf "event loop order regression: step (t=%dus, seq %d) after (t=%dus, seq %d)"
           us seq c.last_us c.last_seq);
    c.step_seen <- true;
    c.last_us <- us;
    c.last_seq <- seq
  | Kind.Link_send ->
    let size_bytes = v.f0 in
    c.link_sends <- c.link_sends + 1;
    if size_bytes < 0 then
      flag c at (Printf.sprintf "link send with negative size: %d bytes" size_bytes)
  | Kind.Link_deliver ->
    c.link_delivers <- c.link_delivers + 1;
    link_conserved c at
  | Kind.Serializer_hop ->
    let from_ser = v.f0 and to_ser = v.f1 in
    if from_ser = to_ser then
      flag c at (Printf.sprintf "serializer self-hop: ser%d forwarded to itself" from_ser)
  | Kind.Serializer_deliver ->
    let dc = v.f0 in
    if dc < 0 then flag c at (Printf.sprintf "serializer egress toward invalid dc%d" dc)
  | Kind.Delay_wait ->
    let serializer = v.f0 and us = v.f1 in
    if us < 0 then
      flag c at (Printf.sprintf "negative artificial delay at ser%d: %dus" serializer us)
  | Kind.Chain_ack ->
    let seq = v.f0 in
    if seq < 0 then flag c at (Printf.sprintf "chain ack for invalid seq %d" seq)
  | Kind.Vec_advance ->
    let dc = v.f0 and src = v.f1 and ts = v.f2 in
    let i = Keyed.find c.vec_ts dc src 0 0 in
    (if Keyed.found c.vec_ts i then
       let prev = Keyed.value c.vec_ts i in
       if ts <= prev then
         flag c at
           (Printf.sprintf "version vector regression at dc%d: entry for dc%d moved %d -> %d" dc
              src prev ts));
    Keyed.set c.vec_ts i dc src 0 0 ts
  | Kind.Switch_done ->
    let dc = v.f0 and epoch = v.f1 in
    let i = Keyed.find c.switch_done dc epoch 0 0 in
    if not (Keyed.found c.switch_epochs (Keyed.find c.switch_epochs epoch 0 0 0)) then
      flag c at
        (Printf.sprintf "dc%d finished migrating to epoch %d that no Switch_begin announced" dc
           epoch)
    else if Keyed.found c.switch_done i then
      flag c at (Printf.sprintf "dc%d finished migrating to epoch %d twice" dc epoch)
    else Keyed.set c.switch_done i dc epoch 0 0 0
  | Kind.Ser_commit ->
    let ser = v.f0 and origin = v.f1 and oseq = v.f2 and epoch = v.f3 in
    c.commits <- c.commits + 1;
    check_marker_last c at ~what:"commit" ~origin ~oseq ~epoch;
    let i = Keyed.find c.commit_seq epoch ser origin 0 in
    if Keyed.found c.commit_seq i && oseq <= Keyed.value c.commit_seq i then begin
      let prev = Keyed.value c.commit_seq i in
      if oseq = prev then
        flag c at
          (Printf.sprintf "duplicate commit at ser%d: origin dc%d seq %d committed twice" ser
             origin oseq)
      else
        flag c at
          (Printf.sprintf "FIFO violation at ser%d: origin dc%d seq %d after seq %d" ser origin
             oseq prev)
    end
    else Keyed.set c.commit_seq i epoch ser origin 0 oseq
  | Kind.Label_forward ->
    let dc = v.f0 and gear = v.f1 and oseq = v.f3 and epoch = v.f5 in
    let i = Keyed.find c.route_epoch dc 0 0 0 in
    if not (Keyed.found c.route_epoch i) then Keyed.set c.route_epoch i dc 0 0 0 epoch
    else begin
      let max_e = Keyed.value c.route_epoch i in
      if epoch < max_e then
        flag c at
          (Printf.sprintf "route regression at dc%d: label entered epoch-%d tree after epoch-%d" dc
             epoch max_e)
      else if epoch > max_e then Keyed.set c.route_epoch i dc 0 0 0 epoch
    end;
    if gear = Saturn.Label.marker_gear then begin
      let i = Keyed.find c.marker_epoch dc 0 0 0 in
      if Keyed.found c.marker_epoch i then
        flag c at (Printf.sprintf "duplicate epoch-change marker from origin dc%d" dc)
      else begin
        Keyed.set c.marker_epoch i dc 0 0 0 epoch;
        Keyed.set c.marker_oseq (Keyed.find c.marker_oseq dc 0 0 0) dc 0 0 0 oseq
      end
    end
    else if oseq >= 0 then check_marker_last c at ~what:"forward" ~origin:dc ~oseq ~epoch
  | Kind.Sink_emit ->
    let dc = v.f0 and ts = v.f1 in
    let i = Keyed.find c.sink_ts dc 0 0 0 in
    (if Keyed.found c.sink_ts i then
       let prev = Keyed.value c.sink_ts i in
       if ts < prev then
         flag c at (Printf.sprintf "sink order violation at dc%d: ts %d after ts %d" dc ts prev));
    Keyed.set c.sink_ts i dc 0 0 0 ts
  | Kind.Proxy_apply ->
    let dc = v.f0 and src_dc = v.f1 and gear = v.f2 and ts = v.f3 in
    let i = Keyed.find c.sources dc src_dc 0 0 in
    if not (Keyed.found c.sources i) then begin
      let r = Run.create ts in
      ignore (Run.add r ts gear : bool);
      let k = Keyed.n c.sources in
      if k = Array.length c.runs then begin
        let runs = Array.make (max 8 (2 * k)) r in
        Array.blit c.runs 0 runs 0 k;
        c.runs <- runs
      end;
      c.runs.(k) <- r;
      Keyed.set c.sources i dc src_dc 0 0 k
    end
    else begin
      let r = c.runs.(Keyed.value c.sources i) in
      if not (Run.add r ts gear) then
        flag c at
          (Printf.sprintf
             "duplicate apply at dc%d: label (src dc%d, ts %d, gear %d) installed twice" dc src_dc
             ts gear);
      if ts <= r.last_ts then
        flag c at
          (Printf.sprintf "proxy order violation at dc%d: src dc%d ts %d after ts %d" dc src_dc ts
             r.last_ts)
      else r.last_ts <- ts
    end
  | Kind.Fifo_resend -> c.resends <- c.resends + 1
  | Kind.Link_drop ->
    if v.flag then c.drops_cut <- c.drops_cut + 1 else c.drops_down <- c.drops_down + 1;
    c.link_drops <- c.link_drops + 1;
    link_conserved c at
  | Kind.Head_change -> c.head_changes <- c.head_changes + 1
  | Kind.Proxy_mode -> if v.flag then c.fallbacks <- c.fallbacks + 1
  | Kind.Switch_begin ->
    let epoch = v.f0 in
    c.switches <- c.switches + 1;
    let i = Keyed.find c.switch_epochs epoch 0 0 0 in
    Keyed.set c.switch_epochs i epoch 0 0 0 0
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
  Sim.Probe.iter_views probe (step c);
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
