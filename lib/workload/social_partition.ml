type t = {
  g : Scale.t;
  n_dcs : int;
  masters : int array;
  rmap : Kvstore.Replica_map.t;
}

let partition g ~n_dcs ~min_replicas ~max_replicas ~seed =
  if min_replicas < 1 then invalid_arg "Social_partition.partition: min_replicas < 1";
  if min_replicas > max_replicas then
    invalid_arg "Social_partition.partition: min_replicas > max_replicas";
  let n = Scale.n_users g in
  let rng = Sim.Rng.create ~seed in
  (* masters: start from communities spread round-robin over datacenters,
     then greedy local moves toward the majority of friends (bounded-size
     label propagation, the greedy heart of [46]) *)
  let masters = Array.init n (fun u -> Scale.community g u mod n_dcs) in
  let capacity = (n / n_dcs) + (n / (n_dcs * 4)) + 1 in
  let load = Array.make n_dcs 0 in
  Array.iter (fun m -> load.(m) <- load.(m) + 1) masters;
  let order = Array.init n Fun.id in
  Sim.Rng.shuffle rng order;
  for _pass = 1 to 3 do
    Array.iter
      (fun u ->
        let counts = Array.make n_dcs 0 in
        Scale.iter_friends g u (fun v -> counts.(masters.(v)) <- counts.(masters.(v)) + 1);
        let cur = masters.(u) in
        let best = ref cur in
        Array.iteri
          (fun dc c ->
            if dc <> cur && c > counts.(!best) && load.(dc) < capacity then best := dc)
          counts;
        if !best <> cur && counts.(!best) > counts.(cur) then begin
          load.(cur) <- load.(cur) - 1;
          load.(!best) <- load.(!best) + 1;
          masters.(u) <- !best
        end)
      order
  done;
  (* replica sets: master + datacenters hosting most friends, capped *)
  let replica_set u =
    let counts = Array.make n_dcs 0 in
    Scale.iter_friends g u (fun v -> counts.(masters.(v)) <- counts.(masters.(v)) + 1);
    let master = masters.(u) in
    let candidates =
      List.filter (fun dc -> dc <> master && counts.(dc) > 0) (List.init n_dcs Fun.id)
      |> List.sort (fun a b -> Int.compare counts.(b) counts.(a))
    in
    let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest in
    let extras = take (max_replicas - 1) candidates in
    let set = master :: extras in
    (* pad up to the minimum degree with round-robin datacenters *)
    let rec pad set dc =
      if List.length set >= min min_replicas n_dcs then set
      else begin
        let dc = dc mod n_dcs in
        if List.mem dc set then pad set (dc + 1) else pad (dc :: set) (dc + 1)
      end
    in
    pad set (master + 1)
  in
  let sets = Array.init n replica_set in
  let rmap =
    Kvstore.Replica_map.create ~n_dcs ~n_keys:(2 * n) ~assign:(fun key -> sets.(key mod n))
  in
  { g; n_dcs; masters; rmap }

let master t ~user = t.masters.(user)
let graph t = t.g
let replica_map t = t.rmap
let wall_key _ ~user = user
let album_key t ~user = Scale.n_users t.g + user

let locality t =
  let total = ref 0 and local = ref 0 in
  for u = 0 to Scale.n_users t.g - 1 do
    Scale.iter_friends t.g u (fun v ->
        if v > u then begin
          incr total;
          if t.masters.(u) = t.masters.(v) then incr local
        end)
  done;
  if !total = 0 then 1. else float_of_int !local /. float_of_int !total

let mean_replication t = Kvstore.Replica_map.mean_degree t.rmap
