type t = {
  engine : Sim.Engine.t;
  gears : Gear.t array;
  buffer : Label.t Sim.Heap.Keyed.t; (* keyed by (ts, src): Label.compare_ts_src *)
  emit : Label.t -> unit;
  emitted_counter : Stats.Registry.counter;
  mutable last_emitted_ts : Sim.Time.t;
  mutable stopped : bool;
}

let stable_ts t =
  Array.fold_left (fun acc g -> Sim.Time.min acc (Gear.floor g)) Sim.Time.infinity t.gears

(* emits every buffered label at or below [stable], in (ts, src) order *)
let rec drain t stable =
  if not (Sim.Heap.Keyed.is_empty t.buffer) then begin
    let l = Sim.Heap.Keyed.min_payload t.buffer in
    if Sim.Time.compare l.Label.ts stable <= 0 then begin
      ignore (Sim.Heap.Keyed.pop_exn t.buffer);
      (* the stability rule guarantees monotone emission *)
      assert (Sim.Time.compare l.Label.ts t.last_emitted_ts >= 0);
      t.last_emitted_ts <- l.Label.ts;
      Stats.Registry.incr t.emitted_counter;
      if Sim.Probe.active () then begin
        let at = Sim.Engine.now t.engine in
        Sim.Span.end_ ~at Sim.Span.Sk_sink_hold ~origin:l.Label.src_dc
          ~seq:(Sim.Time.to_us l.Label.ts) ~aux:l.Label.src_gear ~site:l.Label.src_dc
          ~peer:(-1) ~epoch:0;
        Sim.Probe.sink_emit ~at ~dc:l.Label.src_dc ~ts:(Sim.Time.to_us l.Label.ts)
      end;
      t.emit l;
      drain t stable
    end
  end

let flush t = drain t (stable_ts t)

let create engine ~gears ~period ~emit ~observer ?(name = "sink") () =
  let { Stats.Observer.registry; series } = observer in
  let t =
    {
      engine;
      gears;
      buffer =
        Sim.Heap.Keyed.create
          ~dummy:(Label.update ~ts:Sim.Time.zero ~src_dc:0 ~src_gear:0 ~key:0)
          ();
      emit;
      emitted_counter = Stats.Registry.counter registry (name ^ ".emitted");
      last_emitted_ts = Sim.Time.zero;
      stopped = false;
    }
  in
  (match series with
  | Some series ->
    Stats.Series.sample series
      ("series." ^ name ^ ".depth")
      (fun () -> float_of_int (Sim.Heap.Keyed.size t.buffer))
  | None -> ());
  Sim.Engine.periodic engine ~every:period (fun () -> flush t) ~stop:(fun () -> t.stopped);
  t

let offer t label =
  if Sim.Probe.active () then
    Sim.Span.begin_ ~at:(Sim.Engine.now t.engine) Sim.Span.Sk_sink_hold
      ~origin:label.Label.src_dc ~seq:(Sim.Time.to_us label.Label.ts) ~aux:label.Label.src_gear
      ~site:label.Label.src_dc ~peer:(-1) ~epoch:0;
  Sim.Heap.Keyed.push t.buffer ~k1:(Label.key_ts label) ~k2:(Label.key_src label) label
let stop t = t.stopped <- true
let emitted t = Stats.Registry.counter_value t.emitted_counter
let buffered t = Sim.Heap.Keyed.size t.buffer
