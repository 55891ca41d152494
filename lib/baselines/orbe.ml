type version = Common.meta (* (ts, origin dc): LWW order *)

(* dependency matrix: sparse map (dc, partition) -> required applied count *)
module Dm = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type session = { mutable ctx : int Dm.t } (* the client's dependency matrix *)

type pending = {
  key : int;
  value : Kvstore.Value.t;
  version : version;
  dm : int Dm.t;
  src_part : int;
  seq : int; (* sequence number within (origin, partition) *)
  origin_time : Sim.Time.t;
}

type bulk = pending

type dc_state = {
  applied : int array array; (* [src dc].[partition] -> updates applied locally *)
  mutable pending : pending list;
}

type t = {
  geo : (session, version, bulk) Common.t;
  dcs : dc_state array;
  seq : int array array; (* [dc].[partition] -> updates issued *)
  mutable entries_shipped : int;
  mutable updates_shipped : int;
}

let name = "orbe"
let fabric t = t.geo

let merge_entry dm key count =
  Dm.update key (function Some c when c >= count -> Some c | Some _ | None -> Some count) dm

let satisfied t ~dc dm =
  Dm.for_all (fun (j, part) need -> t.dcs.(dc).applied.(j).(part) >= need) dm

(* sequence numbers are per (origin, partition): updates from one partition
   must be applied in order for the applied counters to mean "prefix" *)
let in_order t ~dc pn = t.dcs.(dc).applied.(snd pn.version).(pn.src_part) = pn.seq - 1

let applicable t ~dc pn = in_order t ~dc pn && satisfied t ~dc pn.dm

let install t ~dc pn =
  let origin = snd pn.version in
  t.dcs.(dc).applied.(origin).(pn.src_part) <- pn.seq;
  Common.install t.geo ~dc ~key:pn.key pn.value
    pn.version ~origin_dc:origin ~origin_time:pn.origin_time

let rec drain t ~dc =
  let d = t.dcs.(dc) in
  let ready, still = List.partition (fun pn -> applicable t ~dc pn) d.pending in
  d.pending <- still;
  if ready <> [] then begin
    List.iter (install t ~dc) ready;
    drain t ~dc
  end

let apply t ~dc ~part:_ pn =
  if applicable t ~dc pn then begin
    install t ~dc pn;
    drain t ~dc
  end
  else t.dcs.(dc).pending <- pn :: t.dcs.(dc).pending

let entry_cost t dm = Dm.cardinal dm * (Common.cost t.geo).Saturn.Cost_model.scalar_meta_us

let deliver t ~src:_ ~dst pn =
  let cost_us =
    Saturn.Cost_model.eventual_apply_us (Common.cost t.geo)
      ~size_bytes:pn.value.Kvstore.Value.size_bytes
    + entry_cost t pn.dm
  in
  Common.submit t.geo ~dc:dst
    ~part:(Saturn.Fabric.partition (Common.shared t.geo) ~key:pn.key)
    ~cost_us
    (Common.Apply pn)

let write t s ~dc ~part ~key value =
  let geo = t.geo in
  let dm = s.ctx in
  let ts = Saturn.Fabric.stamp (Common.shared geo) ~dc ~part ~floor:Sim.Time.zero in
  let version = (ts, dc) in
  t.seq.(dc).(part) <- t.seq.(dc).(part) + 1;
  let seq = t.seq.(dc).(part) in
  Kvstore.Store.put (Saturn.Fabric.store (Common.shared geo) ~dc ~part) ~key value version;
  t.dcs.(dc).applied.(dc).(part) <- seq;
  let origin_time = Sim.Engine.now (Common.engine geo) in
  t.updates_shipped <- t.updates_shipped + 1;
  t.entries_shipped <- t.entries_shipped + Dm.cardinal dm;
  (* wire layout: 16-byte LWW version header (excluded from causal
     accounting, as everywhere) + 16 bytes of sequencing coordinates and
     matrix framing (src partition, sequence number, entry count — the
     prefix-order machinery) + 12 per (dc, partition) matrix entry *)
  let causal_bytes = 16 + (12 * Dm.cardinal dm) in
  Saturn.Fabric.ship_update (Common.shared geo) ~dc ~key ~part ~ts ~spans:false
    ~size_bytes:(value.Kvstore.Value.size_bytes + 16 + causal_bytes)
    ~meta_bytes:causal_bytes
    { key; value; version; dm; src_part = part; seq; origin_time };
  (* transitivity: the new version subsumes the whole context *)
  s.ctx <- Dm.singleton (dc, part) seq;
  ts

(* the read's dependency is summarized by the local applied counter for
   the version's (origin, partition) *)
let stamp_read t ~dc ~part (_, origin) = t.dcs.(dc).applied.(origin).(part)

let learn_read s ~key:_ ~part (_, origin) ~stamp =
  if stamp > 0 then s.ctx <- merge_entry s.ctx (origin, part) stamp

let create ~observer engine p hooks =
  let geo =
    Common.create ~observer ~name engine p hooks ~cmp:Common.compare_meta ~session:(fun () ->
        { ctx = Dm.empty })
  in
  let n = Common.n_dcs geo in
  let t =
    {
      geo;
      dcs =
        Array.init n (fun _ ->
            { applied = Array.init n (fun _ -> Array.make p.Saturn.Fabric.partitions 0); pending = [] });
      seq = Array.init n (fun _ -> Array.make p.Saturn.Fabric.partitions 0);
      entries_shipped = 0;
      updates_shipped = 0;
    }
  in
  Common.pending_gauge geo (fun dc -> List.length t.dcs.(dc).pending);
  let cost = p.Saturn.Fabric.cost in
  Common.bind geo
    {
      Common.attach = Common.attach_now geo;
      read_us = Saturn.Cost_model.eventual_read_us cost;
      stamp_read = stamp_read t;
      learn_read;
      write_us =
        (fun s ~size_bytes -> Saturn.Cost_model.eventual_write_us cost ~size_bytes + entry_cost t s.ctx);
      write = write t;
      learn_write = Common.forget_write;
      apply = apply t;
      deliver = deliver t;
    };
  t

let mean_matrix_entries t =
  if t.updates_shipped = 0 then 0.
  else float_of_int t.entries_shipped /. float_of_int t.updates_shipped

let blocked_updates t ~dc = List.length t.dcs.(dc).pending
