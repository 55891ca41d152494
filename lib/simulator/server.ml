(* Completions are FIFO in due time (each finishes at the previous one's
   finish plus a non-negative cost), so the queue is a delay line of the
   submitted items: a submit allocates nothing of its own. *)
type 'a t = {
  engine : Engine.t;
  mutable free_at : Time.t; (* time at which the server drains its queue *)
  mutable busy : Time.t;
  mutable submitted : int;
  line : 'a Delay_line.t;
}

let create engine handler =
  { engine; free_at = Time.zero; busy = Time.zero; submitted = 0;
    line = Delay_line.create engine handler }

let submit t ~cost x =
  let cost = Time.max cost Time.zero in
  let now = Engine.now t.engine in
  let start = Time.max now t.free_at in
  let finish = Time.add start cost in
  t.free_at <- finish;
  t.busy <- Time.add t.busy cost;
  t.submitted <- t.submitted + 1;
  Delay_line.push t.line ~at:finish x

let busy_time t = t.busy
let queue_length t = Delay_line.length t.line

(* an item leaves the line just before its handler runs *)
let completed t = t.submitted - queue_length t

let backlog t =
  let now = Engine.now t.engine in
  if Time.compare t.free_at now <= 0 then Time.zero else Time.sub t.free_at now
