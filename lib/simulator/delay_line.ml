type 'a t = {
  engine : Engine.t;
  items : 'a Ring.t;
  handler : 'a -> unit;
  mutable last : Time.t; (* due time of the latest push *)
  mutable fire : unit -> unit; (* the one closure every event runs *)
}

let create engine handler =
  let t = { engine; items = Ring.create (); handler; last = Time.zero; fire = ignore } in
  t.fire <- (fun () -> t.handler (Ring.pop_exn t.items));
  t

let push t ~at x =
  if Time.compare at t.last < 0 then invalid_arg "Delay_line.push: due time earlier than the last";
  t.last <- at;
  Ring.push t.items x;
  Engine.schedule_at t.engine at t.fire

let length t = Ring.length t.items
