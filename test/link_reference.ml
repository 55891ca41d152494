(* The closure-batch link that Sim.Link replaced, kept as the reference
   the typed channel is checked against: every send carries its own
   delivery closure, and each arrival instant gets a fresh batch record
   with its own closure array and its own engine-event closure. Same
   latency, FIFO clamp, batching rule, per-item epoch check, counters
   and probe events as the library link, so driven alike the two must
   deliver the same messages at the same times through the same number of
   engine events. *)

open Sim

type batch = {
  b_epoch : int;
  mutable b_items : (unit -> unit) array;
  mutable b_n : int;
  mutable b_fired : bool;
}

type t = {
  engine : Engine.t;
  mutable base_latency : Time.t;
  mutable last_arrival : Time.t;
  mutable up : bool;
  mutable epoch : int; (* bumped on cut: invalidates in-flight messages *)
  mutable open_batch : batch option;
  mutable open_batch_at : Time.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_down : int; (* sent while the link was down *)
  mutable dropped_cut : int; (* in flight when the link was cut *)
}

let create engine ~latency () =
  {
    engine;
    base_latency = latency;
    last_arrival = Time.zero;
    up = true;
    epoch = 0;
    open_batch = None;
    open_batch_at = Time.zero;
    sent = 0;
    delivered = 0;
    dropped_down = 0;
    dropped_cut = 0;
  }

let nop () = ()

let batch_push b deliver =
  let cap = Array.length b.b_items in
  if b.b_n = cap then begin
    let bigger = Array.make (cap * 2) nop in
    Array.blit b.b_items 0 bigger 0 b.b_n;
    b.b_items <- bigger
  end;
  b.b_items.(b.b_n) <- deliver;
  b.b_n <- b.b_n + 1

let fire t b =
  (* mark first: a deliver callback that immediately sends back through
     this link at the same instant must open a fresh batch (a later engine
     event), preserving the unbatched ordering *)
  b.b_fired <- true;
  (match t.open_batch with
  | Some ob when ob.b_fired -> t.open_batch <- None
  | Some _ | None -> ());
  let at = Engine.now t.engine in
  for i = 0 to b.b_n - 1 do
    (* per-item check: a cut by an earlier item in this batch (epoch bump)
       drops the rest, exactly as per-message events did *)
    if t.up && t.epoch = b.b_epoch then begin
      t.delivered <- t.delivered + 1;
      if Probe.active () then Probe_reference.record ~at Probe_reference.Link_deliver;
      b.b_items.(i) ()
    end
    else begin
      t.dropped_cut <- t.dropped_cut + 1;
      if Probe.active () then
        Probe_reference.record ~at (Probe_reference.Link_drop { in_flight = true })
    end;
    b.b_items.(i) <- nop
  done

let send t ?(size_bytes = 0) deliver =
  t.sent <- t.sent + 1;
  if Probe.active () then
    Probe_reference.record ~at:(Engine.now t.engine) (Probe_reference.Link_send { size_bytes });
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    if Probe.active () then
      Probe_reference.record ~at:(Engine.now t.engine)
        (Probe_reference.Link_drop { in_flight = false })
  end
  else begin
    let arrival = Time.max (Time.add (Engine.now t.engine) t.base_latency) t.last_arrival in
    t.last_arrival <- arrival;
    match t.open_batch with
    | Some b
      when (not b.b_fired) && b.b_epoch = t.epoch && Time.equal t.open_batch_at arrival ->
      batch_push b deliver
    | Some _ | None ->
      let b = { b_epoch = t.epoch; b_items = Array.make 4 nop; b_n = 0; b_fired = false } in
      batch_push b deliver;
      t.open_batch <- Some b;
      t.open_batch_at <- arrival;
      Engine.schedule_at t.engine arrival (fun () -> fire t b)
  end

let set_latency t l = t.base_latency <- l
let latency t = t.base_latency

let cut t =
  t.up <- false;
  t.epoch <- t.epoch + 1

let restore t = t.up <- true
let is_up t = t.up
let delivered_count t = t.delivered
let dropped_count t = t.dropped_down + t.dropped_cut
let dropped_down_count t = t.dropped_down
let dropped_cut_count t = t.dropped_cut
let in_flight_count t = t.sent - t.delivered - t.dropped_down - t.dropped_cut
