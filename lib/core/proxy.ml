type payload = {
  label : Label.t;
  value : Kvstore.Value.t;
  origin_time : Sim.Time.t;
  epoch : int; (* configuration epoch at the origin when the shipment left *)
}
type mode = Stream | Fallback
type state = Waiting | Applied
type entry = { label : Label.t; mutable state : state }
type switch_state = Graceful of { epoch : int; seen : bool array } | Forced

(* A label's progress at this datacenter, one table entry per label from
   the first of its stream entry and its payload to arrive until [compact]
   drops it long after it was applied. [listed] records that the label
   waits in the stream or the next-epoch buffer, so its ordering-wait
   span was opened. *)
type progress =
  | Listed (* waiting in the stream or the next-epoch buffer; the payload
              has not arrived *)
  | Held of { mutable p : payload; mutable staged : bool; mutable listed : bool }
      (* the payload is here; [staged] once the server-side staging ran,
         installable at its position from then on *)
  | Done (* applied *)

module Label_tbl = Hashtbl.Make (struct
  type t = Label.t

  let equal = Label.equal
  let hash = Label.hash
end)

(* the per-datacenter serialization, as a growable array-deque: the applied
   prefix is pruned by advancing [head]; appends are amortized O(1). Slots
   outside [head, tail) hold [vacant], so a push stores the entry itself *)
type stream = { mutable arr : entry array; mutable head : int; mutable tail : int }

let vacant = { label = Label.update ~ts:Sim.Time.zero ~src_dc:0 ~src_gear:0 ~key:0; state = Applied }

type t = {
  engine : Sim.Engine.t;
  dc : int;
  n_dcs : int;
  stage_update : payload -> unit;
  install_update : payload -> unit;
  mutable mode : mode;
  stream : stream;
  labels : progress Label_tbl.t;
  mutable held : int; (* labels [Held] *)
  applied_wm : Sim.Time.t array; (* per-source applied watermark *)
  bulk_floor : Sim.Time.t array; (* per-source promise carried by bulk channel *)
  bulk_epoch : int array; (* per-source highest epoch tag seen on bulk traffic *)
  mutable old_pending : int;
    (* during a forced switch: arrived-but-unapplied payloads shipped under
       the outgoing epoch; completion waits for this to reach zero *)
  pending_by_src : Label.t Sim.Heap.Keyed.t array;
    (* payloads not yet applied, per source, keyed by (ts, src) *)
  label_waiters : (unit -> unit) list Label_tbl.t;
  mutable ts_waiters : (Sim.Time.t * (unit -> unit)) list;
  mutable migration_hook : (Label.t -> unit) option;
  next_buffer : Label.t Queue.t;
  mutable switch : switch_state option;
  mutable switch_done : bool;
  mutable target_epoch : int; (* epoch being migrated into while a switch runs *)
  mutable switch_done_hook : (unit -> unit) option;
  applied_counter : Stats.Registry.counter;
  fallback_counter : Stats.Registry.counter;
  apply_series : Stats.Series.counter option;
  mutable scanning : bool;
  mutable need_rescan : bool;
}

let create engine ~dc ~n_dcs ~stage_update ~install_update ?registry ?series ?(mode = Stream) ()
    =
  let registry = match registry with Some r -> r | None -> Stats.Registry.create () in
  let t =
    {
    engine;
    dc;
    n_dcs;
    stage_update;
    install_update;
    mode;
    stream = { arr = Array.make 64 vacant; head = 0; tail = 0 };
    labels = Label_tbl.create 256;
    held = 0;
    applied_wm = Array.make n_dcs Sim.Time.zero;
    bulk_floor = Array.make n_dcs Sim.Time.zero;
    bulk_epoch = Array.make n_dcs 0;
    old_pending = 0;
    pending_by_src = Array.init n_dcs (fun _ -> Sim.Heap.Keyed.create ~dummy:vacant.label ());
    label_waiters = Label_tbl.create 32;
    ts_waiters = [];
    migration_hook = None;
    next_buffer = Queue.create ();
    switch = None;
    switch_done = false;
    target_epoch = 0;
    switch_done_hook = None;
    applied_counter = Stats.Registry.counter registry (Printf.sprintf "proxy.dc%d.applied_updates" dc);
    fallback_counter =
      Stats.Registry.counter registry (Printf.sprintf "proxy.dc%d.fallback_activations" dc);
    apply_series =
      Option.map (fun s -> Stats.Series.counter s (Printf.sprintf "series.apply.dc%d" dc)) series;
    scanning = false;
    need_rescan = false;
    }
  in
  (match series with
  | Some series ->
    Stats.Series.sample series
      (Printf.sprintf "series.pending.dc%d" dc)
      (fun () ->
        let s = t.stream in
        let n = ref t.held in
        for i = s.head to s.tail - 1 do
          match s.arr.(i).state with Waiting -> incr n | Applied -> ()
        done;
        float_of_int !n)
  | None -> ());
  t

let probe_mode t m =
  if Sim.Probe.active () then
    Sim.Probe.proxy_mode ~at:(Sim.Engine.now t.engine) ~dc:t.dc
      ~mode:(match m with Stream -> Sim.Probe.Stream | Fallback -> Sim.Probe.Fallback)

let probe_apply t (label : Label.t) ~fallback =
  if Sim.Probe.active () then
    Sim.Probe.proxy_apply ~at:(Sim.Engine.now t.engine) ~dc:t.dc ~src_dc:label.Label.src_dc
      ~gear:label.Label.src_gear ~ts:(Sim.Time.to_us label.Label.ts) ~fallback

let span_label ~at ph t (label : Label.t) =
  let origin = label.Label.src_dc and seq = Sim.Time.to_us label.Label.ts in
  let aux = label.Label.src_gear in
  match ph with
  | `Begin ->
    Sim.Span.begin_ ~at Sim.Span.Sk_proxy_order ~origin ~seq ~aux ~site:t.dc ~peer:(-1) ~epoch:0
  | `End ->
    Sim.Span.end_ ~at Sim.Span.Sk_proxy_order ~origin ~seq ~aux ~site:t.dc ~peer:(-1) ~epoch:0

let mode t = t.mode

let set_mode t m =
  if m <> t.mode then begin
    probe_mode t m;
    if m = Fallback then Stats.Registry.incr t.fallback_counter
  end;
  t.mode <- m

let on_migration_applicable t f = t.migration_hook <- Some f
let applied_updates t = Stats.Registry.counter_value t.applied_counter
let pending_stream t =
  let s = t.stream in
  let n = ref 0 in
  for i = s.head to s.tail - 1 do
    match s.arr.(i).state with Waiting -> incr n | Applied -> ()
  done;
  !n
let label_was_applied t l =
  match Label_tbl.find t.labels l with
  | Done -> true
  | Listed | Held _ -> false
  | exception Not_found -> false

(* ---- watermarks and waiters ------------------------------------------- *)

(* Drops applied labels left at the top of [heap]; true when a pending
   one remains at the top. *)
let rec clean t heap =
  if Sim.Heap.Keyed.is_empty heap then false
  else if label_was_applied t (Sim.Heap.Keyed.min_payload heap) then begin
    ignore (Sim.Heap.Keyed.pop_exn heap);
    clean t heap
  end
  else true

let effective_watermark t ~src =
  if src = t.dc then Sim.Time.infinity
  else begin
    (* the smallest not-yet-applied payload timestamp from [src] *)
    let heap = t.pending_by_src.(src) in
    let safe_floor =
      if clean t heap then
        let pts = (Sim.Heap.Keyed.min_payload heap).Label.ts in
        Sim.Time.min t.bulk_floor.(src) (Sim.Time.sub pts (Sim.Time.of_us 1))
      else t.bulk_floor.(src)
    in
    Sim.Time.max t.applied_wm.(src) safe_floor
  end

let ts_satisfied t ts =
  let ok = ref true in
  for src = 0 to t.n_dcs - 1 do
    if src <> t.dc && Sim.Time.compare (effective_watermark t ~src) ts < 0 then ok := false
  done;
  !ok

let check_ts_waiters t =
  match t.ts_waiters with
  | [] -> () (* the common case: skip the allocating partition *)
  | waiters ->
    let ready, still = List.partition (fun (ts, _) -> ts_satisfied t ts) waiters in
    t.ts_waiters <- still;
    List.iter (fun (_, k) -> k ()) ready

let fire_label_waiters t label =
  match Label_tbl.find_opt t.label_waiters label with
  | Some ks ->
    Label_tbl.remove t.label_waiters label;
    List.iter (fun k -> k ()) (List.rev ks)
  | None -> ()

let mark_applied t (label : Label.t) =
  let listed =
    match Label_tbl.find t.labels label with
    | Held { p; listed; _ } ->
      t.held <- t.held - 1;
      (match t.switch with
      | Some Forced when p.epoch < t.target_epoch -> t.old_pending <- t.old_pending - 1
      | Some Forced | Some (Graceful _) | None -> ());
      listed
    | Listed -> true
    | Done | (exception Not_found) -> false
  in
  (* ordering-wait span: opened by [list_label] for a label that had to
     wait in the stream or the next-epoch buffer. The timestamp path can
     install a payload before its label is listed, and in fallback mode
     the stream is not appended: neither opened a span, so no end is
     owed *)
  if listed && t.mode = Stream && Sim.Probe.active () then
    span_label ~at:(Sim.Engine.now t.engine) `End t label;
  Label_tbl.replace t.labels label Done;
  (* any label from a source advances its watermark: sinks emit per-source
     labels in timestamp order *)
  if label.src_dc <> t.dc then
    t.applied_wm.(label.src_dc) <- Sim.Time.max t.applied_wm.(label.src_dc) label.ts;
  if Label.is_update label then begin
    Stats.Registry.incr t.applied_counter;
    match t.apply_series with
    | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now t.engine)
    | None -> ()
  end;
  fire_label_waiters t label;
  check_ts_waiters t

(* ---- the Saturn-serialization path ------------------------------------ *)

let stream_prune s =
  while s.head < s.tail && s.arr.(s.head).state = Applied do
    s.arr.(s.head) <- vacant;
    s.head <- s.head + 1
  done

let stream_push s e =
  let cap = Array.length s.arr in
  if s.tail = cap then begin
    let live = s.tail - s.head in
    if live * 2 <= cap then begin
      (* compact in place *)
      Array.blit s.arr s.head s.arr 0 live;
      Array.fill s.arr live (cap - live) vacant
    end
    else begin
      let bigger = Array.make (cap * 2) vacant in
      Array.blit s.arr s.head bigger 0 live;
      s.arr <- bigger
    end;
    s.head <- 0;
    s.tail <- live
  end;
  s.arr.(s.tail) <- e;
  s.tail <- s.tail + 1

(* Timestamp inversions in the delivered stream (the §4.3 concurrency
   signal) are shallow: they only span labels in flight simultaneously on
   different tree branches. Scanning a bounded window past the first
   blocked entry captures all of that parallelism while keeping each scan
   O(window). *)
let scan_window = 64

let rec scan t =
  if t.scanning then t.need_rescan <- true
  else begin
    t.scanning <- true;
    let continue = ref true in
    while !continue do
      continue := false;
      let s = t.stream in
      stream_prune s;
      (* an entry is applicable when no earlier entry with a strictly
         smaller timestamp is still unapplied: Saturn delivering a larger
         timestamp first certifies concurrency (§4.3) *)
      let min_unapplied = ref Sim.Time.infinity in
      let blocked_seen = ref 0 in
      let i = ref s.head in
      while !i < s.tail && !blocked_seen < scan_window do
        let e = s.arr.(!i) in
        (match e.state with
        | Waiting when Sim.Time.compare !min_unapplied e.label.Label.ts >= 0 ->
          if try_apply t e then continue := true
        | Waiting | Applied -> ());
        (match e.state with
        | Applied -> ()
        | Waiting ->
          incr blocked_seen;
          min_unapplied := Sim.Time.min !min_unapplied e.label.Label.ts);
        incr i
      done;
      if t.need_rescan then begin
        t.need_rescan <- false;
        continue := true
      end
    done;
    t.scanning <- false;
    check_switch_completion t
  end

and try_apply t e =
  let label = e.label in
  match label.Label.target with
  | Label.Update _ -> (
    match Label_tbl.find t.labels label with
    | Done ->
      e.state <- Applied;
      true
    | Held { p; staged = true; _ } ->
      e.state <- Applied;
      t.install_update p;
      probe_apply t label ~fallback:false;
      mark_applied t label;
      true
    | Held { staged = false; _ } | Listed | (exception Not_found) ->
      false (* bulk transfer / staging not completed yet *))
  | Label.Migration { dest_dc } ->
    e.state <- Applied;
    if dest_dc = t.dc then (match t.migration_hook with Some f -> f label | None -> ());
    mark_applied t label;
    true
  | Label.Epoch_change { epoch } ->
    e.state <- Applied;
    (match t.switch with
    | Some (Graceful g) when g.epoch = epoch -> g.seen.(label.Label.src_dc) <- true
    | Some (Graceful _) | Some Forced | None -> ());
    mark_applied t label;
    true

and check_switch_completion t =
  stream_prune t.stream;
  match t.switch with
  | Some (Graceful g) when Array.for_all Fun.id g.seen && t.stream.head = t.stream.tail ->
    complete_switch t
  | Some Forced ->
    (* C1-era traffic has drained when (a) every peer's bulk channel has
       delivered a post-switch epoch tag — the channel is FIFO, so nothing
       shipped before the switch is still in flight behind it — and (b)
       every old-era payload that did arrive was applied by the
       timestamp-order sweep.  Only then is adopting C2 safe: any label
       the old tree can still deliver is already applied, and
       each source's C2 timestamps lie above all its C1-era ones, so the
       stream stays FIFO per origin across the epoch boundary. *)
    let drained = ref (t.old_pending = 0) in
    for src = 0 to t.n_dcs - 1 do
      if src <> t.dc && t.bulk_epoch.(src) < t.target_epoch then drained := false
    done;
    if !drained then begin
      if t.mode <> Stream then probe_mode t Stream;
      t.mode <- Stream;
      complete_switch t
    end
  | Some (Graceful _) | None -> ()

and complete_switch t =
  t.switch <- None;
  t.switch_done <- true;
  if Sim.Probe.active () then
    Sim.Probe.switch_done ~at:(Sim.Engine.now t.engine) ~dc:t.dc ~epoch:t.target_epoch;
  (match t.switch_done_hook with Some f -> f () | None -> ());
  (* [on_label_next] listed each buffered label and opened its span *)
  Queue.iter
    (fun label ->
      let state = if label_was_applied t label then Applied else Waiting in
      stream_push t.stream { label; state })
    t.next_buffer;
  Queue.clear t.next_buffer;
  scan t

(* Records that [label] waits in the stream and opens its ordering-wait
   span; [Applied] when it was already applied. *)
and list_label t label =
  let state =
    match Label_tbl.find t.labels label with
    | Done -> Applied
    | Held h ->
      h.listed <- true;
      Waiting
    | Listed -> Waiting
    | exception Not_found ->
      Label_tbl.add t.labels label Listed;
      Waiting
  in
  if state = Waiting && Sim.Probe.active () then
    span_label ~at:(Sim.Engine.now t.engine) `Begin t label;
  state

and append_label t label = stream_push t.stream { label; state = list_label t label }

let on_label t label =
  match t.mode with
  | Stream ->
    append_label t label;
    scan t
  | Fallback -> () (* during an outage the stream is not trusted *)

(* ---- the timestamp-order fallback path --------------------------------- *)

let stable_floor t =
  let stable = ref Sim.Time.infinity in
  for src = 0 to t.n_dcs - 1 do
    if src <> t.dc then stable := Sim.Time.min !stable t.bulk_floor.(src)
  done;
  !stable

(* The timestamp-order sweep runs in BOTH modes: labels ride along with the
   bulk payloads, so a payload that is stable in timestamp order can always
   be installed even if its tree label is slow or lost (the paper's
   availability argument, §6.1). In stream mode the tree is virtually
   always faster, so the sweep only catches pathological stragglers. *)
let rec try_fallback t =
  let stable = stable_floor t in
  (* smallest pending payload overall, in (ts, src) order, tracked by its
     source *)
  let best = ref (-1) in
  for src = 0 to t.n_dcs - 1 do
    if src <> t.dc && clean t t.pending_by_src.(src) then
      if
        !best < 0
        || Label.compare_ts_src
             (Sim.Heap.Keyed.min_payload t.pending_by_src.(!best))
             (Sim.Heap.Keyed.min_payload t.pending_by_src.(src))
           > 0
      then best := src
  done;
  if !best >= 0 then begin
    let l = Sim.Heap.Keyed.min_payload t.pending_by_src.(!best) in
    if Sim.Time.compare l.Label.ts stable <= 0 then
      (* in-ts-order install; if the next payload is still staging we wait
         for its staging continuation to re-enter *)
      match Label_tbl.find t.labels l with
      | Held { p; staged = true; _ } ->
        t.install_update p;
        probe_apply t l ~fallback:true;
        mark_applied t l;
        (match t.mode with Stream -> scan t | Fallback -> ());
        check_switch_completion t;
        try_fallback t
      | Held { staged = false; _ } | Listed | Done | (exception Not_found) -> ()
  end

(* ---- inputs ------------------------------------------------------------ *)

let hold t (p : payload) ~listed =
  t.held <- t.held + 1;
  (match t.switch with
  | Some Forced when p.epoch < t.target_epoch -> t.old_pending <- t.old_pending + 1
  | Some Forced | Some (Graceful _) | None -> ());
  Label_tbl.replace t.labels p.label (Held { p; staged = false; listed })

let on_payload t (p : payload) =
  let src = p.label.Label.src_dc in
  t.bulk_floor.(src) <- Sim.Time.max t.bulk_floor.(src) p.label.Label.ts;
  if p.epoch > t.bulk_epoch.(src) then t.bulk_epoch.(src) <- p.epoch;
  let held =
    match Label_tbl.find t.labels p.label with
    | Done -> false
    | Held h ->
      h.p <- p (* a duplicate shipment *);
      true
    | Listed ->
      hold t p ~listed:true;
      true
    | exception Not_found ->
      hold t p ~listed:false;
      true
  in
  if held then begin
    Sim.Heap.Keyed.push t.pending_by_src.(src) ~k1:(Label.key_ts p.label)
      ~k2:(Label.key_src p.label) p.label;
    t.stage_update p
  end;
  check_ts_waiters t;
  (match t.mode with Stream -> scan t | Fallback -> ());
  try_fallback t;
  check_switch_completion t

let staged t (p : payload) =
  if not (label_was_applied t p.label) then begin
    (* closes the bulk-transfer span opened when the payload left the
       origin datacenter (System's ship hook) *)
    if Sim.Probe.active () then begin
      let l = p.label in
      Sim.Span.end_ ~at:(Sim.Engine.now t.engine) Sim.Span.Sk_bulk ~origin:l.Label.src_dc
        ~seq:(Sim.Time.to_us l.Label.ts) ~aux:l.Label.src_gear ~site:l.Label.src_dc ~peer:t.dc
        ~epoch:0
    end;
    (match Label_tbl.find t.labels p.label with
    | Held h -> h.staged <- true
    | Listed | Done | (exception Not_found) -> ());
    (match t.mode with Stream -> scan t | Fallback -> ());
    try_fallback t
  end

let on_heartbeat t ~src ?(epoch = 0) ts =
  t.bulk_floor.(src) <- Sim.Time.max t.bulk_floor.(src) ts;
  if epoch > t.bulk_epoch.(src) then t.bulk_epoch.(src) <- epoch;
  check_ts_waiters t;
  try_fallback t;
  check_switch_completion t

(* Labels older than every source's promise minus this margin can no longer
   arrive for the first time: tree propagation and channel retransmission
   are bounded far below it. *)
let compact_margin = Sim.Time.of_sec 5.

let compact t =
  let floor = ref Sim.Time.infinity in
  for src = 0 to t.n_dcs - 1 do
    if src <> t.dc then floor := Sim.Time.min !floor t.bulk_floor.(src)
  done;
  if Sim.Time.compare !floor Sim.Time.infinity < 0 then begin
    let cutoff = Sim.Time.sub !floor compact_margin in
    if Sim.Time.compare cutoff Sim.Time.zero > 0 then begin
      let stale =
        Label_tbl.fold
          (fun (l : Label.t) progress acc ->
            match progress with
            | Done when Sim.Time.compare l.Label.ts cutoff < 0 -> l :: acc
            | Done | Listed | Held _ -> acc)
          t.labels []
      in
      List.iter (Label_tbl.remove t.labels) stale
    end
  end

let wait_for_label t label k =
  if label_was_applied t label then k ()
  else begin
    let existing = Option.value ~default:[] (Label_tbl.find_opt t.label_waiters label) in
    Label_tbl.replace t.label_waiters label (k :: existing)
  end

let wait_for_ts t ts k = if ts_satisfied t ts then k () else t.ts_waiters <- (ts, k) :: t.ts_waiters

(* ---- reconfiguration --------------------------------------------------- *)

(* A next-epoch label arriving before the switch completes waits in
   [next_buffer], and its ordering wait starts now: listing it here opens
   the span that [mark_applied] ends, so the wait tiles its journey. *)
let on_label_next t label =
  if t.switch_done then on_label t label
  else begin
    ignore (list_label t label);
    Queue.push label t.next_buffer
  end

let on_switch_done t f = t.switch_done_hook <- Some f

let start_graceful_switch t ~epoch =
  let seen = Array.make t.n_dcs false in
  seen.(t.dc) <- true;
  t.target_epoch <- epoch;
  t.switch <- Some (Graceful { epoch; seen });
  check_switch_completion t

let start_forced_switch t ~epoch =
  t.target_epoch <- epoch;
  t.old_pending <-
    Label_tbl.fold
      (fun _ progress acc ->
        match progress with
        | Held { p; _ } when p.epoch < epoch -> acc + 1
        | Held _ | Listed | Done -> acc)
      t.labels 0;
  t.switch <- Some Forced;
  if t.mode <> Fallback then probe_mode t Fallback;
  t.mode <- Fallback;
  try_fallback t;
  check_switch_completion t

let switch_complete t = t.switch_done
