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

let analyze probe =
  let violations = ref [] in
  let flag at what = violations := { at; what } :: !violations in
  (* (epoch, serializer, origin) -> last committed per-origin seq; epoch-2
     serializer ids and per-origin uid counters both restart at 0, so the
     exactly-once/FIFO key must carry the epoch to stay collision-free
     across the migration window *)
  let commit_seq : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* dc -> last sink-emitted ts *)
  let sink_ts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* (dc, src_dc) -> last applied ts *)
  let apply_ts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  (* (dc, src_dc, ts, gear) -> () — old/new tree races must not install one
     label twice *)
  let applied : (int * int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* origin dc -> highest tree epoch its labels have entered: a sink never
     routes back into an older tree *)
  let route_epoch : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* origin dc -> (epoch the marker closed, marker oseq): the epoch-change
     marker must be the last label the origin pushed through the old tree *)
  let marker_oseq : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let check_marker_last at ~what ~origin ~oseq ~epoch =
    match Hashtbl.find_opt marker_oseq origin with
    | Some (closed_epoch, mseq) when epoch = closed_epoch && oseq > mseq ->
      flag at
        (Printf.sprintf
           "epoch-%d %s after marker: origin dc%d seq %d follows epoch-change marker seq %d"
           epoch what origin oseq mseq)
    | _ -> ()
  in
  let commits = ref 0
  and resends = ref 0
  and drops_cut = ref 0
  and drops_down = ref 0
  and head_changes = ref 0
  and fallbacks = ref 0
  and switches = ref 0 in
  (* the event loop pops its keyed heap in (time, scheduling-seq) order, so
     the step stream must be strictly increasing under that lexicographic
     key — anything else means the engine replayed or reordered work.
     Kept as two ints and a flag: an option would allocate per step *)
  let step_seen = ref false and last_us = ref 0 and last_seq = ref 0 in
  (* every delivered or dropped message was first sent: the running link
     conservation law [delivers + drops <= sends] *)
  let link_sends = ref 0 and link_delivers = ref 0 and link_drops = ref 0 in
  let link_conserved at =
    if !link_delivers + !link_drops > !link_sends then
      flag at
        (Printf.sprintf "link conservation violated: %d delivered + %d dropped > %d sent"
           !link_delivers !link_drops !link_sends)
  in
  (* (dc, src) -> last version-vector entry: baselines emit Vec_advance
     only when the entry strictly advances, so equality is a violation *)
  let vec_ts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  (* epochs announced by Switch_begin; (dc, epoch) pairs already done *)
  let switch_epochs : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let switch_done : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  Sim.Probe.iter probe (fun at ev ->
      match (ev : Sim.Probe.event) with
      | Sim.Probe.Engine_step { seq } ->
        let us = Sim.Time.to_us at in
        if !step_seen && (us < !last_us || (us = !last_us && seq <= !last_seq)) then
          flag at
            (Printf.sprintf
               "event loop order regression: step (t=%dus, seq %d) after (t=%dus, seq %d)" us seq
               !last_us !last_seq);
        step_seen := true;
        last_us := us;
        last_seq := seq
      | Sim.Probe.Link_send { size_bytes } ->
        incr link_sends;
        if size_bytes < 0 then
          flag at (Printf.sprintf "link send with negative size: %d bytes" size_bytes)
      | Sim.Probe.Link_deliver ->
        incr link_delivers;
        link_conserved at
      | Sim.Probe.Serializer_hop { from_ser; to_ser } ->
        if from_ser = to_ser then
          flag at (Printf.sprintf "serializer self-hop: ser%d forwarded to itself" from_ser)
      | Sim.Probe.Serializer_deliver { dc } ->
        if dc < 0 then flag at (Printf.sprintf "serializer egress toward invalid dc%d" dc)
      | Sim.Probe.Delay_wait { serializer; us } ->
        if us < 0 then
          flag at (Printf.sprintf "negative artificial delay at ser%d: %dus" serializer us)
      | Sim.Probe.Chain_ack { seq } ->
        if seq < 0 then flag at (Printf.sprintf "chain ack for invalid seq %d" seq)
      | Sim.Probe.Vec_advance { dc; src; ts } ->
        (match Hashtbl.find_opt vec_ts (dc, src) with
        | Some prev when ts <= prev ->
          flag at
            (Printf.sprintf "version vector regression at dc%d: entry for dc%d moved %d -> %d" dc
               src prev ts)
        | _ -> ());
        Hashtbl.replace vec_ts (dc, src) ts
      | Sim.Probe.Switch_done { dc; epoch } ->
        if not (Hashtbl.mem switch_epochs epoch) then
          flag at
            (Printf.sprintf "dc%d finished migrating to epoch %d that no Switch_begin announced" dc
               epoch)
        else if Hashtbl.mem switch_done (dc, epoch) then
          flag at (Printf.sprintf "dc%d finished migrating to epoch %d twice" dc epoch)
        else Hashtbl.replace switch_done (dc, epoch) ()
      | Sim.Probe.Ser_commit { ser; origin; oseq; epoch } ->
        incr commits;
        check_marker_last at ~what:"commit" ~origin ~oseq ~epoch;
        (match Hashtbl.find_opt commit_seq (epoch, ser, origin) with
        | Some prev when oseq = prev ->
          flag at
            (Printf.sprintf "duplicate commit at ser%d: origin dc%d seq %d committed twice" ser
               origin oseq)
        | Some prev when oseq < prev ->
          flag at
            (Printf.sprintf "FIFO violation at ser%d: origin dc%d seq %d after seq %d" ser origin
               oseq prev)
        | _ -> Hashtbl.replace commit_seq (epoch, ser, origin) oseq)
      | Sim.Probe.Label_forward { dc; gear; ts = _; oseq; inst = _; epoch } ->
        (match Hashtbl.find_opt route_epoch dc with
        | Some max_e when epoch < max_e ->
          flag at
            (Printf.sprintf "route regression at dc%d: label entered epoch-%d tree after epoch-%d"
               dc epoch max_e)
        | Some max_e when epoch > max_e -> Hashtbl.replace route_epoch dc epoch
        | Some _ -> ()
        | None -> Hashtbl.replace route_epoch dc epoch);
        if gear = Saturn.Label.marker_gear then begin
          if Hashtbl.mem marker_oseq dc then
            flag at (Printf.sprintf "duplicate epoch-change marker from origin dc%d" dc)
          else Hashtbl.replace marker_oseq dc (epoch, oseq)
        end
        else if oseq >= 0 then check_marker_last at ~what:"forward" ~origin:dc ~oseq ~epoch
      | Sim.Probe.Sink_emit { dc; ts } ->
        (match Hashtbl.find_opt sink_ts dc with
        | Some prev when ts < prev ->
          flag at (Printf.sprintf "sink order violation at dc%d: ts %d after ts %d" dc ts prev)
        | _ -> ());
        Hashtbl.replace sink_ts dc ts
      | Sim.Probe.Proxy_apply { dc; src_dc; ts; gear; fallback = _ } ->
        if Hashtbl.mem applied (dc, src_dc, ts, gear) then
          flag at
            (Printf.sprintf "duplicate apply at dc%d: label (src dc%d, ts %d, gear %d) installed twice"
               dc src_dc ts gear)
        else Hashtbl.replace applied (dc, src_dc, ts, gear) ();
        (match Hashtbl.find_opt apply_ts (dc, src_dc) with
        | Some prev when ts <= prev ->
          flag at
            (Printf.sprintf "proxy order violation at dc%d: src dc%d ts %d after ts %d" dc src_dc
               ts prev)
        | _ -> Hashtbl.replace apply_ts (dc, src_dc) ts)
      | Sim.Probe.Fifo_resend _ -> incr resends
      | Sim.Probe.Link_drop { in_flight } ->
        if in_flight then incr drops_cut else incr drops_down;
        incr link_drops;
        link_conserved at
      | Sim.Probe.Head_change _ -> incr head_changes
      | Sim.Probe.Proxy_mode { mode = Sim.Probe.Fallback; _ } -> incr fallbacks
      | Sim.Probe.Switch_begin { epoch; graceful = _ } ->
        incr switches;
        Hashtbl.replace switch_epochs epoch ()
      | _ -> ());
  {
    violations = List.rev !violations;
    commits = !commits;
    resends = !resends;
    drops_cut = !drops_cut;
    drops_down = !drops_down;
    head_changes = !head_changes;
    fallback_activations = !fallbacks;
    switches = !switches;
  }

let ok r = r.violations = []

let pp fmt r =
  Format.fprintf fmt
    "@[<v>commits=%d resends=%d drops(cut)=%d drops(down)=%d head-changes=%d fallbacks=%d switches=%d@,"
    r.commits r.resends r.drops_cut r.drops_down r.head_changes r.fallback_activations r.switches;
  (match r.violations with
  | [] -> Format.fprintf fmt "invariants: OK"
  | vs ->
    Format.fprintf fmt "invariants: %d VIOLATION(S)" (List.length vs);
    List.iter (fun v -> Format.fprintf fmt "@,  t=%dus %s" (Sim.Time.to_us v.at) v.what) vs);
  Format.fprintf fmt "@]"
