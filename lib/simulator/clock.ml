type t = { engine : Engine.t; mutable offset : Time.t; mutable last : Time.t }

let create engine = { engine; offset = Time.zero; last = Time.zero }
let raw t = Time.max Time.zero (Time.add (Engine.now t.engine) t.offset)
let peek t = Time.max (raw t) t.last
let bump t d = t.offset <- Time.add t.offset d

let read t =
  let v = raw t in
  let v = if Time.compare v t.last <= 0 then Time.add t.last (Time.of_us 1) else v in
  t.last <- v;
  v
