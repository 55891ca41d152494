type t = {
  part : Social_partition.t;
  value_size : int;
  rng : Sim.Rng.t;
  mutable payload : int;
  mutable ops : int;
  mutable remote : int;
}

let create part ~value_size ~seed =
  { part; value_size; rng = Sim.Rng.create ~seed; payload = 0; ops = 0; remote = 0 }

let fresh_value t =
  t.payload <- t.payload + 1;
  Kvstore.Value.make ~payload:t.payload ~size_bytes:t.value_size

let random_friend t user = Scale.friend (Social_partition.graph t.part) t.rng user

let resolve_read t ~dc key =
  let rmap = Social_partition.replica_map t.part in
  if Kvstore.Replica_map.replicates rmap ~dc ~key then Op.Read { key }
  else begin
    t.remote <- t.remote + 1;
    (* without a topology handle we read from the lowest-numbered holder;
       the driver's latency model still charges the WAN round-trip *)
    Op.Remote_read { key; at = Kvstore.Replica_map.replica rmap ~key 0 }
  end

let next t ~user =
  t.ops <- t.ops + 1;
  let dc = Social_partition.master t.part ~user in
  match Scale.kind_of_draw (Sim.Rng.float t.rng 1.0) with
  | Scale.Browse_friend_wall ->
    resolve_read t ~dc (Social_partition.wall_key t.part ~user:(random_friend t user))
  | Scale.Browse_friend_albums ->
    resolve_read t ~dc (Social_partition.album_key t.part ~user:(random_friend t user))
  | Scale.Read_own_wall -> Op.Read { key = Social_partition.wall_key t.part ~user }
  | Scale.Universal_search ->
    let target = Sim.Rng.int t.rng (Scale.n_users (Social_partition.graph t.part)) in
    resolve_read t ~dc (Social_partition.wall_key t.part ~user:target)
  | Scale.Update_own_wall ->
    Op.Write { key = Social_partition.wall_key t.part ~user; value = fresh_value t }
  | Scale.Write_friend_wall ->
    (* writes must target locally-replicated data; if the friend's wall is
       not local, write our own wall instead (a wall-to-wall post) *)
    let friend_key = Social_partition.wall_key t.part ~user:(random_friend t user) in
    let rmap = Social_partition.replica_map t.part in
    let key =
      if Kvstore.Replica_map.replicates rmap ~dc ~key:friend_key then friend_key
      else Social_partition.wall_key t.part ~user
    in
    Op.Write { key; value = fresh_value t }
  | Scale.Upload_album ->
    Op.Write { key = Social_partition.album_key t.part ~user; value = fresh_value t }

let remote_fraction t = if t.ops = 0 then 0. else float_of_int t.remote /. float_of_int t.ops
