type meta = Sim.Time.t * int

let compare_meta (ta, da) (tb, db) =
  match Sim.Time.compare ta tb with 0 -> Int.compare da db | c -> c

type dt = { mutable dt : Sim.Time.t }

let new_dt () = { dt = Sim.Time.zero }
let bump_dt s ts = if Sim.Time.compare ts s.dt > 0 then s.dt <- ts
let learn_read_dt s ~key:_ ~part:_ (ts, _) ~stamp:_ = bump_dt s ts
let learn_write_dt s ~dc:_ ~key:_ ts = bump_dt s ts

type kind = Attach | Read | Update

type ('s, 'm, 'b) item =
  | Op of {
      kind : kind;
      session : 's;
      home : Sim.Topology.site;
      dc : int;
      key : int;
      value : Kvstore.Value.t;
      k : unit -> unit;
      k_read : Kvstore.Value.t option -> unit;
      mutable part : int;
      mutable found : (Kvstore.Value.t * 'm) option;
      mutable stamp : int;
    }
  | Apply of 'b
  | Cold of (unit -> unit)

type ('s, 'm, 'b) protocol = {
  attach : 's -> dc:int -> ('s, 'm, 'b) item -> unit;
  read_us : size_bytes:int -> int;
  stamp_read : dc:int -> part:int -> 'm -> int;
  learn_read : 's -> key:int -> part:int -> 'm -> stamp:int -> unit;
  write_us : 's -> size_bytes:int -> int;
  write : 's -> dc:int -> part:int -> key:int -> Kvstore.Value.t -> Sim.Time.t;
  learn_write : 's -> dc:int -> key:int -> Sim.Time.t -> unit;
  apply : dc:int -> part:int -> 'b -> unit;
  deliver : src:int -> dst:int -> 'b -> unit;
}

(* The shared fabric's legs and frontends carry client requests, its
   storage servers requests, remote applies and cold thunks, its bulk
   channels the protocol's own messages. *)
type ('s, 'm, 'b) t = {
  fabric : ('s, 'm, ('s, 'm, 'b) item, 'b) Saturn.Fabric.t;
  series : Stats.Series.t option;
  apply_series : Stats.Series.counter option array; (* per dc *)
  mutable proto : ('s, 'm, 'b) protocol;
}

let unbound () =
  let fail () = invalid_arg "Common: protocol not bound" in
  {
    attach = (fun _ ~dc:_ _ -> fail ());
    read_us = (fun ~size_bytes:_ -> fail ());
    stamp_read = (fun ~dc:_ ~part:_ _ -> fail ());
    learn_read = (fun _ ~key:_ ~part:_ _ ~stamp:_ -> fail ());
    write_us = (fun _ ~size_bytes:_ -> fail ());
    write = (fun _ ~dc:_ ~part:_ ~key:_ _ -> fail ());
    learn_write = (fun _ ~dc:_ ~key:_ _ -> fail ());
    apply = (fun ~dc:_ ~part:_ _ -> fail ());
    deliver = (fun ~src:_ ~dst:_ _ -> fail ());
  }

let not_a_request () = invalid_arg "Common: not a client request"
let engine t = Saturn.Fabric.engine t.fabric
let params t = Saturn.Fabric.params t.fabric

let submit t ~dc ~part ~cost_us item =
  Saturn.Fabric.submit t.fabric ~dc ~part ~cost:(Sim.Time.of_us cost_us) item

let reply t item =
  match item with
  | Op o -> Saturn.Fabric.reply t.fabric ~home:o.home ~dc:o.dc item
  | Apply _ | Cold _ -> not_a_request ()

let front t ~dc item =
  match item with
  | Op o -> (
    match o.kind with
    | Attach -> t.proto.attach o.session ~dc item
    | Read ->
      let part = Saturn.Fabric.partition t.fabric ~key:o.key in
      o.part <- part;
      let size = Kvstore.Store.value_size (Saturn.Fabric.store t.fabric ~dc ~part) ~key:o.key in
      submit t ~dc ~part ~cost_us:(t.proto.read_us ~size_bytes:size) item
    | Update ->
      let part = Saturn.Fabric.partition t.fabric ~key:o.key in
      o.part <- part;
      submit t ~dc ~part
        ~cost_us:(t.proto.write_us o.session ~size_bytes:o.value.Kvstore.Value.size_bytes)
        item)
  | Apply _ | Cold _ -> not_a_request ()

let serve t ~dc ~part item =
  match item with
  | Op o -> (
    match o.kind with
    | Read ->
      let found = Kvstore.Store.get (Saturn.Fabric.store t.fabric ~dc ~part) ~key:o.key in
      o.found <- found;
      (match found with
      | Some (_, m) -> o.stamp <- t.proto.stamp_read ~dc ~part m
      | None -> ());
      reply t item
    | Update ->
      o.stamp <- t.proto.write o.session ~dc ~part ~key:o.key o.value;
      reply t item
    | Attach -> not_a_request ())
  | Apply b -> t.proto.apply ~dc ~part b
  | Cold f -> f ()

let back t ~dc:_ item =
  match item with
  | Op o -> (
    match o.kind with
    | Attach -> o.k ()
    | Read -> (
      match o.found with
      | Some (v, m) ->
        t.proto.learn_read o.session ~key:o.key ~part:o.part m ~stamp:o.stamp;
        o.k_read (Some v)
      | None -> o.k_read None)
    | Update ->
      t.proto.learn_write o.session ~dc:o.dc ~key:o.key o.stamp;
      o.k ())
  | Apply _ | Cold _ -> not_a_request ()

let handlers =
  {
    Saturn.Fabric.arrive = (fun _ ~dc:_ _ -> ());
    front;
    serve;
    finish = back;
    deliver = (fun t ~src ~dst b -> t.proto.deliver ~src ~dst b);
  }

let create ~observer ~name engine p hooks ~cmp ~session =
  let { Stats.Observer.registry; series } = observer in
  let n = Array.length p.Saturn.Fabric.dc_sites in
  let t =
    Saturn.Fabric.create engine p handlers hooks
      ~meta:(Stats.Meta_bytes.create registry ~system:name)
      ~cmp ~session:(fun ~home:_ -> session ())
      (fun fabric ->
        {
          fabric;
          series;
          apply_series =
            Array.init n (fun dc ->
                Option.map
                  (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
                  series);
          proto = unbound ();
        })
  in
  (* same series names as the Saturn deployment, so queue dynamics are
     directly comparable across systems *)
  Option.iter (Saturn.Fabric.drive_series t.fabric) series;
  t

let bind t proto = t.proto <- proto
let shared t = t.fabric
let n_dcs t = Saturn.Fabric.n_dcs t.fabric
let cost t = (params t).Saturn.Fabric.cost

(* ---- client requests ---------------------------------------------------- *)

let no_value = Kvstore.Value.make ~payload:0 ~size_bytes:0
let no_read (_ : Kvstore.Value.t option) = ()

let request t ~kind ~client ~home ~dc ~key ~value ~k ~k_read =
  let item =
    Op
      {
        kind;
        session = Saturn.Fabric.session t.fabric ~client ~home;
        home;
        dc;
        key;
        value;
        k;
        k_read;
        part = 0;
        found = None;
        stamp = 0;
      }
  in
  Saturn.Fabric.send t.fabric ~home ~dc item

let attach t ~client ~home ~dc ~k =
  request t ~kind:Attach ~client ~home ~dc ~key:0 ~value:no_value ~k ~k_read:no_read

let read t ~client ~home ~dc ~key ~k =
  request t ~kind:Read ~client ~home ~dc ~key ~value:no_value ~k:ignore ~k_read:k

let update t ~client ~home ~dc ~key ~value ~k =
  request t ~kind:Update ~client ~home ~dc ~key ~value ~k ~k_read:no_read

(* the protocol-record defaults of the systems without that step *)
let attach_now t _ ~dc:_ item = reply t item
let no_stamp ~dc:_ ~part:_ _ = 0
let forget_read _ ~key:_ ~part:_ _ ~stamp:_ = ()
let forget_write _ ~dc:_ ~key:_ _ = ()

(* ---- remote installs ----------------------------------------------------- *)

let install t ~dc ~key value meta ~origin_dc ~origin_time =
  (match t.apply_series.(dc) with
  | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (engine t))
  | None -> ());
  Saturn.Fabric.install t.fabric ~dc ~key value meta ~origin_dc ~origin_time

let vec_advance t ~dc ~src ts =
  if Sim.Probe.active () then
    Sim.Probe.vec_advance ~at:(Sim.Engine.now (engine t)) ~dc ~src ~ts:(Sim.Time.to_us ts)

let pending_gauge t count =
  Option.iter
    (fun sr ->
      for dc = 0 to n_dcs t - 1 do
        Stats.Series.sample sr (Printf.sprintf "series.pending.dc%d" dc) (fun () ->
            float_of_int (count dc))
      done)
    t.series

(* ---- the scalar-stamped update ------------------------------------------ *)

type shipped = {
  key : int;
  value : Kvstore.Value.t;
  meta : meta;
  part : int;
  origin_time : Sim.Time.t;
}

let write_stamped t ~dc ~part ~key value ~floor ~header_bytes ~meta_bytes wrap =
  let ts = Saturn.Fabric.stamp t.fabric ~dc ~part ~floor in
  let meta = (ts, dc) in
  Kvstore.Store.put (Saturn.Fabric.store t.fabric ~dc ~part) ~key value meta;
  let origin_time = Sim.Engine.now (engine t) in
  Saturn.Fabric.ship_update t.fabric ~dc ~key ~part ~ts ~spans:true
    ~size_bytes:(value.Kvstore.Value.size_bytes + header_bytes)
    ~meta_bytes
    (wrap { key; value; meta; part; origin_time });
  ts

(* parked updates keyed by their meta, (timestamp, origin dc): the
   {!compare_meta} order *)
let stable_queue () =
  let dummy =
    { key = 0; value = no_value; meta = (Sim.Time.zero, 0); part = 0; origin_time = Sim.Time.zero }
  in
  Sim.Heap.Keyed.create ~dummy ()

let park t ~dc ~part q u =
  if Sim.Probe.active () then begin
    let origin, ts = (snd u.meta, fst u.meta) in
    let at = Sim.Engine.now (engine t) in
    Sim.Span.end_ ~at Sim.Span.Sk_bulk ~origin ~seq:(Sim.Time.to_us ts) ~aux:part ~site:origin
      ~peer:dc ~epoch:0;
    Sim.Span.begin_ ~at Sim.Span.Sk_stab ~origin ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc
      ~peer:(-1) ~epoch:0
  end;
  Sim.Heap.Keyed.push q ~k1:(Sim.Time.to_us (fst u.meta)) ~k2:(snd u.meta) u

let rec flush_stable t ~dc q ~stable =
  if (not (Sim.Heap.Keyed.is_empty q)) && Sim.Heap.Keyed.min_k1 q <= Sim.Time.to_us stable
  then begin
    let u = Sim.Heap.Keyed.pop_exn q in
    if Sim.Probe.active () then
      Sim.Span.end_ ~at:(Sim.Engine.now (engine t)) Sim.Span.Sk_stab ~origin:(snd u.meta)
        ~seq:(Sim.Time.to_us (fst u.meta)) ~aux:u.part ~site:dc ~peer:(-1) ~epoch:0;
    install t ~dc ~key:u.key u.value u.meta ~origin_dc:(snd u.meta)
      ~origin_time:u.origin_time;
    flush_stable t ~dc q ~stable
  end

let release t waiters ~ready =
  let go, still = List.partition ready waiters in
  List.iter (fun (_, item) -> reply t item) go;
  still

(* ---- lifetime ------------------------------------------------------------ *)

let every t period f = Saturn.Fabric.every t.fabric period f

(* one stabilization round per period at every dc: a shared countdown task
   queued on each partition in turn, the round finishing when the last
   partition has run it *)
let stab_rounds t ~cost_us finish =
  let parts = (params t).Saturn.Fabric.partitions in
  for dc = 0 to n_dcs t - 1 do
    every t (cost t).Saturn.Cost_model.stabilization_period (fun () ->
        let remaining = ref parts in
        let task =
          Cold
            (fun () ->
              decr remaining;
              if !remaining = 0 then finish dc)
        in
        for part = 0 to parts - 1 do
          submit t ~dc ~part ~cost_us task
        done)
  done
let stop t = Saturn.Fabric.stop t.fabric
let stopped t = Saturn.Fabric.stopped t.fabric

type ('s, 'm, 'b) fabric = ('s, 'm, 'b) t

module type S = sig
  type t
  type session
  type version
  type bulk

  val name : string
  val fabric : t -> (session, version, bulk) fabric
end
