(* The event queue is a Keyed heap: k1 = absolute time in µs, k2 = the
   scheduling sequence number, payload = the closure. Equal-time events
   still fire in scheduling (FIFO) order via k2, and the per-event path
   never materialises an event record. *)

let nop () = ()

type t = {
  queue : (unit -> unit) Heap.Keyed.t;
  mutable now : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable ids : int;
}

let create () =
  { queue = Heap.Keyed.create ~capacity:64 ~dummy:nop ();
    now = Time.zero; seq = 0; processed = 0; ids = 0 }

let fresh_id t =
  t.ids <- t.ids + 1;
  t.ids

let now t = t.now

let schedule_at t at run =
  let at = Time.max at t.now in
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.Keyed.push t.queue ~k1:(Time.to_us at) ~k2:seq run

let schedule t ~delay run =
  let delay = Time.max delay Time.zero in
  schedule_at t (Time.add t.now delay) run

let periodic t ~every run ~stop =
  let rec tick () =
    if not (stop ()) then begin
      run ();
      schedule t ~delay:every tick
    end
  in
  schedule t ~delay:every tick

let step t =
  if Heap.Keyed.is_empty t.queue then false
  else begin
    let run = Heap.Keyed.pop_exn t.queue in
    let at = Time.of_us (Heap.Keyed.popped_k1 t.queue) in
    t.now <- at;
    t.processed <- t.processed + 1;
    if Probe.active () then
      Probe.emit ~at (Probe.Engine_step { seq = Heap.Keyed.popped_k2 t.queue });
    run ();
    true
  end

let run ?until t =
  let horizon_reached () =
    match until with
    | None -> false
    | Some h ->
      (not (Heap.Keyed.is_empty t.queue)) && Heap.Keyed.min_k1 t.queue > Time.to_us h
  in
  let continue = ref true in
  while !continue do
    if horizon_reached () then continue := false else if not (step t) then continue := false
  done;
  match until with
  | Some h when Time.compare t.now h < 0 -> t.now <- h
  | Some _ | None -> ()

let pending t = Heap.Keyed.size t.queue
let events_processed t = t.processed
