(* The wire holds what faults act on (latency, up/down, the epoch a cut
   bumps) and the counters. Its one typed channel holds what is in flight:
   messages in a ring, oldest first, and beside them a ring of batches.
   A batch is the run of messages sharing one arrival instant: the channel
   schedules one engine event per batch, and every batch event runs the
   channel's one preallocated closure, which pops the oldest batch.
   Arrivals never decrease (FIFO is enforced across latency changes), so batch
   events fire in the order they were scheduled. A batch's epoch is
   checked per message when it fires, so a mid-batch cut still drops
   exactly the in-flight tail. *)
type t = {
  engine : Engine.t;
  mutable base_latency : Time.t;
  mutable last_arrival : Time.t;
  mutable up : bool;
  mutable epoch : int; (* bumped on cut: invalidates in-flight messages *)
  mutable has_chan : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_down : int; (* sent while the link was down *)
  mutable dropped_cut : int; (* in flight when the link was cut *)
}

type 'm chan = {
  wire : t;
  deliver : 'm -> unit;
  items : 'm Ring.t;
  (* batches in flight, oldest first: pair [i] is (count, epoch) at
     [batches.(2i)], [batches.(2i + 1)]; the pair capacity is a power of
     two *)
  mutable batches : int array;
  mutable b_head : int;
  mutable b_len : int;
  mutable open_at : Time.t; (* arrival instant of the newest batch *)
  mutable fire : unit -> unit;
}

let create engine ~latency () =
  {
    engine;
    base_latency = latency;
    last_arrival = Time.zero;
    up = true;
    epoch = 0;
    has_chan = false;
    sent = 0;
    delivered = 0;
    dropped_down = 0;
    dropped_cut = 0;
  }

let fire c =
  let w = c.wire in
  (* pop the batch first: a deliver callback that immediately sends back
     through this channel at the same instant must open a fresh batch (a
     later engine event), preserving the unbatched ordering *)
  let i = 2 * c.b_head in
  let n = c.batches.(i) and epoch = c.batches.(i + 1) in
  c.b_head <- (c.b_head + 1) land ((Array.length c.batches / 2) - 1);
  c.b_len <- c.b_len - 1;
  let at = Engine.now w.engine in
  for _ = 1 to n do
    let m = Ring.pop_exn c.items in
    (* per-item check: a cut by an earlier item in this batch (epoch bump)
       drops the rest, exactly as per-message events did *)
    if w.up && w.epoch = epoch then begin
      w.delivered <- w.delivered + 1;
      if Probe.active () then Probe.link_deliver ~at;
      c.deliver m
    end
    else begin
      w.dropped_cut <- w.dropped_cut + 1;
      if Probe.active () then Probe.link_drop ~at ~in_flight:true
    end
  done

let chan wire deliver =
  if wire.has_chan then invalid_arg "Link.chan: the wire already has its channel";
  wire.has_chan <- true;
  let c =
    { wire; deliver; items = Ring.create (); batches = Array.make 8 0; b_head = 0; b_len = 0;
      open_at = Time.zero; fire = ignore }
  in
  c.fire <- (fun () -> fire c);
  c

let open_batch c ~epoch =
  let pairs = Array.length c.batches / 2 in
  if c.b_len = pairs then begin
    let bigger = Array.make (4 * pairs) 0 in
    let first = pairs - c.b_head in
    Array.blit c.batches (2 * c.b_head) bigger 0 (2 * first);
    Array.blit c.batches 0 bigger (2 * first) (2 * c.b_head);
    c.batches <- bigger;
    c.b_head <- 0
  end;
  let i = 2 * ((c.b_head + c.b_len) land ((Array.length c.batches / 2) - 1)) in
  c.batches.(i) <- 1;
  c.batches.(i + 1) <- epoch;
  c.b_len <- c.b_len + 1

let send c ~size_bytes msg =
  let t = c.wire in
  t.sent <- t.sent + 1;
  if Probe.active () then Probe.link_send ~at:(Engine.now t.engine) ~size_bytes;
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    if Probe.active () then Probe.link_drop ~at:(Engine.now t.engine) ~in_flight:false
  end
  else begin
    (* a latency drop never lets a message overtake one in flight *)
    let arrival = Time.max (Time.add (Engine.now t.engine) t.base_latency) t.last_arrival in
    t.last_arrival <- arrival;
    Ring.push c.items msg;
    (* the newest batch is still open while it has not fired (batches fire
       oldest first, so it is in the ring) and its epoch and instant match *)
    let newest = 2 * ((c.b_head + c.b_len - 1) land ((Array.length c.batches / 2) - 1)) in
    if c.b_len > 0 && c.batches.(newest + 1) = t.epoch && Time.equal c.open_at arrival then
      c.batches.(newest) <- c.batches.(newest) + 1
    else begin
      open_batch c ~epoch:t.epoch;
      c.open_at <- arrival;
      Engine.schedule_at t.engine arrival c.fire
    end
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
