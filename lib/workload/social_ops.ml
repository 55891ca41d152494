type kind =
  | Browse_friend_wall
  | Browse_friend_albums
  | Read_own_wall
  | Universal_search
  | Update_own_wall
  | Write_friend_wall
  | Upload_album

let mix =
  [
    (Browse_friend_wall, 0.52);
    (Browse_friend_albums, 0.15);
    (Read_own_wall, 0.17);
    (Universal_search, 0.06);
    (Update_own_wall, 0.05);
    (Write_friend_wall, 0.03);
    (Upload_album, 0.02);
  ]

(* [mix] as flat tables: [cumulative.(i)] is the running sum of the first
   i+1 shares, accumulated left to right, so a draw picks the same kind a
   walk down the list would *)
let kinds = Array.of_list (List.map fst mix)

let cumulative =
  let acc = ref 0. in
  Array.of_list (List.map (fun (_, p) -> acc := !acc +. p; !acc) mix)

let kind_of_draw x =
  let i = ref 0 in
  while !i < Array.length cumulative && x >= cumulative.(!i) do
    incr i
  done;
  if !i < Array.length kinds then kinds.(!i) else Upload_album

type t = {
  part : Social_partition.t;
  value_size : int;
  rng : Sim.Rng.t;
  nearest_holder : (int * int, int) Hashtbl.t; (* (dc, key) memo *)
  mutable payload : int;
  mutable ops : int;
  mutable remote : int;
}

let create part ~value_size ~seed =
  { part; value_size; rng = Sim.Rng.create ~seed; nearest_holder = Hashtbl.create 4096;
    payload = 0; ops = 0; remote = 0 }

let fresh_value t =
  t.payload <- t.payload + 1;
  Kvstore.Value.make ~payload:t.payload ~size_bytes:t.value_size

let random_friend t user =
  let friends = Social_graph.friends (Social_partition.graph t.part) user in
  if Array.length friends = 0 then user else Sim.Rng.pick t.rng friends

let holder_near t ~dc ~key =
  match Hashtbl.find_opt t.nearest_holder (dc, key) with
  | Some h -> h
  | None ->
    let rmap = Social_partition.replica_map t.part in
    let holders = Kvstore.Replica_map.replicas rmap ~key in
    (* without a topology handle we take the first holder; the driver's
       latency model still charges the WAN round-trip *)
    let h = match holders with h :: _ -> h | [] -> dc in
    Hashtbl.replace t.nearest_holder (dc, key) h;
    h

let resolve_read t ~dc key =
  let rmap = Social_partition.replica_map t.part in
  if Kvstore.Replica_map.replicates rmap ~dc ~key then Op.Read { key }
  else begin
    t.remote <- t.remote + 1;
    Op.Remote_read { key; at = holder_near t ~dc ~key }
  end

let next t ~user =
  t.ops <- t.ops + 1;
  let dc = Social_partition.master t.part ~user in
  match kind_of_draw (Sim.Rng.float t.rng 1.0) with
  | Browse_friend_wall -> resolve_read t ~dc (Social_partition.wall_key t.part ~user:(random_friend t user))
  | Browse_friend_albums ->
    resolve_read t ~dc (Social_partition.album_key t.part ~user:(random_friend t user))
  | Read_own_wall -> Op.Read { key = Social_partition.wall_key t.part ~user }
  | Universal_search ->
    let target = Sim.Rng.int t.rng (Social_graph.n_users (Social_partition.graph t.part)) in
    resolve_read t ~dc (Social_partition.wall_key t.part ~user:target)
  | Update_own_wall -> Op.Write { key = Social_partition.wall_key t.part ~user; value = fresh_value t }
  | Write_friend_wall ->
    (* writes must target locally-replicated data; if the friend's wall is
       not local, write our own wall instead (a wall-to-wall post) *)
    let friend_key = Social_partition.wall_key t.part ~user:(random_friend t user) in
    let rmap = Social_partition.replica_map t.part in
    let key =
      if Kvstore.Replica_map.replicates rmap ~dc ~key:friend_key then friend_key
      else Social_partition.wall_key t.part ~user
    in
    Op.Write { key; value = fresh_value t }
  | Upload_album -> Op.Write { key = Social_partition.album_key t.part ~user; value = fresh_value t }

let remote_fraction t = if t.ops = 0 then 0. else float_of_int t.remote /. float_of_int t.ops
