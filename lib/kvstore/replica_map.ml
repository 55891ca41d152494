type t = {
  n_dcs : int;
  n_keys : int;
  by_key : int array array; (* key -> sorted dc ids, one array per distinct set *)
  member : Bytes.t array; (* dc -> bitset over keys *)
}

let create ~n_dcs ~n_keys ~assign =
  if n_dcs < 1 then invalid_arg "Replica_map.create: n_dcs < 1";
  if n_keys < 0 then invalid_arg "Replica_map.create: n_keys < 0";
  let member = Array.init n_dcs (fun _ -> Bytes.make ((n_keys / 8) + 1) '\000') in
  let set_bit dc key =
    let b = member.(dc) in
    let idx = key / 8 and bit = key mod 8 in
    Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lor (1 lsl bit)))
  in
  (* keys with the same replica set share one array: a scale tier's keys
     fall into three sets, so [by_key] costs a word per key, not four *)
  let shared = Hashtbl.create 16 in
  let by_key =
    Array.init n_keys (fun key ->
        let dcs = List.sort_uniq Int.compare (assign key) in
        if dcs = [] then invalid_arg "Replica_map.create: key with no replicas";
        List.iter
          (fun dc ->
            if dc < 0 || dc >= n_dcs then invalid_arg "Replica_map.create: dc out of range";
            set_bit dc key)
          dcs;
        match Hashtbl.find_opt shared dcs with
        | Some a -> a
        | None ->
          let a = Array.of_list dcs in
          Hashtbl.add shared dcs a;
          a)
  in
  { n_dcs; n_keys; by_key; member }

let n_dcs t = t.n_dcs
let n_keys t = t.n_keys
let replicas t ~key = Array.to_list t.by_key.(key)
let replica t ~key i = t.by_key.(key).(i)

(* folded on demand over the few replicas: a precomputed table would cost
   a word per key, megabytes at the scale tiers *)
let mask t ~key =
  if t.n_dcs > 62 then invalid_arg "Replica_map.mask: more than 62 datacenters";
  let dcs = t.by_key.(key) in
  let m = ref 0 in
  for i = 0 to Array.length dcs - 1 do
    m := !m lor (1 lsl dcs.(i))
  done;
  !m

let replicates t ~dc ~key =
  let b = t.member.(dc) in
  Char.code (Bytes.get b (key / 8)) land (1 lsl (key mod 8)) <> 0

let local_keys t ~dc =
  let rec loop k acc = if k < 0 then acc else loop (k - 1) (if replicates t ~dc ~key:k then k :: acc else acc) in
  loop (t.n_keys - 1) []

let degree t ~key = Array.length t.by_key.(key)

let mean_degree t =
  if t.n_keys = 0 then 0.
  else begin
    let sum = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.by_key in
    float_of_int sum /. float_of_int t.n_keys
  end

let shared_keys t a b =
  let count = ref 0 in
  for k = 0 to t.n_keys - 1 do
    if replicates t ~dc:a ~key:k && replicates t ~dc:b ~key:k then incr count
  done;
  !count

let full ~n_dcs ~n_keys = create ~n_dcs ~n_keys ~assign:(fun _ -> List.init n_dcs Fun.id)
