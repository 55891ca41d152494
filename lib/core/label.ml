type target =
  | Update of { key : int }
  | Migration of { dest_dc : int }
  | Epoch_change of { epoch : int }

type t = { ts : Sim.Time.t; src_dc : int; src_gear : int; target : target }

let update ~ts ~src_dc ~src_gear ~key = { ts; src_dc; src_gear; target = Update { key } }

let migration ~ts ~src_dc ~src_gear ~dest_dc =
  { ts; src_dc; src_gear; target = Migration { dest_dc } }

(* The epoch-change marker's src_gear: the maximum that fits [key_src]'s
   20-bit gear field. No real gear index reaches it (gear counts are
   partition counts, a few bits), so at equal ts the marker sorts after
   every data label from its own datacenter under [compare_ts_src] — the
   §6.2 requirement that the marker is the last label through the old
   tree — and doubles as the marker's identity in the probe stream. *)
let marker_gear = 0xFFFFF

let epoch_change ~ts ~src_dc ~epoch =
  { ts; src_dc; src_gear = marker_gear; target = Epoch_change { epoch } }

let compare_target a b =
  let rank = function Update _ -> 0 | Migration _ -> 1 | Epoch_change _ -> 2 in
  match (a, b) with
  | Update { key = ka }, Update { key = kb } -> Int.compare ka kb
  | Migration { dest_dc = da }, Migration { dest_dc = db } -> Int.compare da db
  | Epoch_change { epoch = ea }, Epoch_change { epoch = eb } -> Int.compare ea eb
  | (Update _ | Migration _ | Epoch_change _), _ -> Int.compare (rank a) (rank b)

let compare_ts_src a b =
  match Sim.Time.compare a.ts b.ts with
  | 0 -> ( match Int.compare a.src_dc b.src_dc with 0 -> Int.compare a.src_gear b.src_gear | c -> c )
  | c -> c

let compare a b =
  match compare_ts_src a b with 0 -> compare_target a.target b.target | c -> c

(* Integer keys realising [compare_ts_src] for Sim.Heap.Keyed buffers:
   k1 = timestamp in µs, k2 = (src_dc, src_gear) packed. Gear indices are
   partition counts (a few bits); 20 bits leaves src_dc its full range on
   63-bit ints. *)
let key_ts t = Sim.Time.to_us t.ts
let key_src t = (t.src_dc lsl 20) lor t.src_gear

let equal a b = compare a b = 0

(* A [Hashtbl.Make] table takes its bucket index from the hash's low bits:
   mix the key pair and fold the high half down, so timestamps that share
   their low bits still spread. Equal labels share (ts, src). *)
let hash t =
  let h = (key_ts t * 0x9e3779b1) + key_src t in
  h lxor (h lsr 32)

let is_update t = match t.target with Update _ -> true | Migration _ | Epoch_change _ -> false
let is_migration t = match t.target with Migration _ -> true | Update _ | Epoch_change _ -> false

(* type tag (1) + ts (8) + src (4) + target (4): the constant footprint the
   paper argues for. *)
let size_bytes = 17

let pp ppf t =
  match t.target with
  | Update { key } ->
    Format.fprintf ppf "upd⟨ts=%a src=%d.%d key=%d⟩" Sim.Time.pp t.ts t.src_dc t.src_gear key
  | Migration { dest_dc } ->
    Format.fprintf ppf "mig⟨ts=%a src=%d.%d dest=dc%d⟩" Sim.Time.pp t.ts t.src_dc t.src_gear dest_dc
  | Epoch_change { epoch } ->
    Format.fprintf ppf "epoch⟨ts=%a src=%d epoch=%d⟩" Sim.Time.pp t.ts t.src_dc epoch
