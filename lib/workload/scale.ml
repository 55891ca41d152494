type tier = T61k | T250k | T1m

let tiers = [ T61k; T250k; T1m ]
let tier_name = function T61k -> "61k" | T250k -> "250k" | T1m -> "1m"

(* 61,096 is the real New Orleans network's user count (§7.4) *)
let tier_users = function T61k -> 61_096 | T250k -> 250_000 | T1m -> 1_000_000

let tier_of_name = function
  | "61k" -> Some T61k
  | "250k" -> Some T250k
  | "1m" -> Some T1m
  | _ -> None

(* Vertex ids are stored as 32-bit ints in [Bytes]: half the words of an
   int array, and a string block the GC never scans. [generate] bounds
   [n_users] by [Int32.max_int], so every id fits and reads back as the
   same int. *)
let get_id b i = Int32.to_int (Bytes.get_int32_ne b (4 * i))
let set_id b i x = Bytes.set_int32_ne b (4 * i) (Int32.of_int x)
let ids n = Bytes.make (4 * n) '\000'

(* growable community pool: a member u of community c is c + C*k (users
   join communities round-robin), so a pool stores k as a 16-bit int —
   half the bytes of an id. [generate] bounds a community at 65,536
   members, so every k fits. The only dynamic structure in the generator *)
type pool = { mutable a : Bytes.t; mutable n : int }

let pool_make cap = { a = Bytes.make (2 * max cap 4) '\000'; n = 0 }
let pool_get p i = Bytes.get_uint16_ne p.a (2 * i)

let pool_push p k =
  let cap = Bytes.length p.a / 2 in
  if p.n = cap then begin
    let bigger = Bytes.make (4 * cap) '\000' in
    Bytes.blit p.a 0 bigger 0 (2 * p.n);
    p.a <- bigger
  end;
  Bytes.set_uint16_ne p.a (2 * p.n) k;
  p.n <- p.n + 1

type t = {
  n_users : int;
  n_edges : int;
  n_communities : int;
  offsets : int array; (* CSR row starts, length n_users + 1 *)
  adj : Bytes.t; (* CSR neighbor ids ([get_id]), 2 * n_edges of them, rows ascending *)
  edge_hash : int64;
}

(* FNV-1a over the 8 little-endian bytes of each endpoint, in edge order —
   same family as the probe digest, so test expectations read the same
   way. An id is below 2^31, so its top four bytes are 0, and their four
   FNV steps (xor 0, multiply) are one multiply by prime^4. One pass over
   the finished edge stream: the running state is a local int64 ref,
   which the native compiler keeps unboxed. *)
let prime4 = Int64.(mul (mul Sim.Fnv.prime Sim.Fnv.prime) (mul Sim.Fnv.prime Sim.Fnv.prime))

let fnv_ids a len =
  let h = ref Sim.Fnv.offset in
  for j = 0 to len - 1 do
    let x = get_id a j in
    for i = 0 to 3 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int ((x lsr (i * 8)) land 0xff))) Sim.Fnv.prime
    done;
    h := Int64.mul !h prime4
  done;
  !h

let generate ~n_users ?(mean_degree = 30) ?(locality = 0.8) ?communities ~seed () =
  if n_users > Int32.to_int Int32.max_int then
    invalid_arg "Scale.generate: n_users exceeds the 32-bit id range";
  if n_users < 2 then invalid_arg "Scale.generate: need at least 2 users";
  if mean_degree < 2 then invalid_arg "Scale.generate: mean_degree < 2";
  if locality < 0. || locality > 1. then invalid_arg "Scale.generate: locality out of [0,1]";
  let n_comm =
    match communities with
    | Some c -> if c < 1 then invalid_arg "Scale.generate: communities < 1" else c
    | None -> max 2 (n_users / 250)
  in
  (* community 0 is the largest: users 0, C, 2C, ... *)
  if ((n_users - 1) / n_comm) + 1 > 65_536 then
    invalid_arg "Scale.generate: a community exceeds 65536 members";
  let rng = Sim.Rng.create ~seed in
  let m = max 1 (mean_degree / 2) in
  let community u = u mod n_comm in
  let seed_size = min n_users (m + 1) in
  let max_edges = (seed_size * (seed_size - 1) / 2) + ((n_users - seed_size) * m) + n_users in
  (* the flat edge stream is also the global endpoint pool: every endpoint
     appears once per incident edge, so a uniform index into the live
     prefix is a degree-proportional pick *)
  let endpoints = ids (2 * max_edges) in
  let deg = Array.make n_users 0 in
  let n_edges = ref 0 in
  (* per-community endpoint pools back the locality bias: each endpoint
     also lands, as its 16-bit member index, in its community's pool.
     Presized to a community's mean share of the endpoints (2m per member)
     so most never regrow; swept before the CSR build, so the adjacency
     never shares the heap with them *)
  let comm_pool = Array.init n_comm (fun _ -> pool_make (2 * m * ((n_users / n_comm) + 1))) in
  let add_edge u v =
    let i = 2 * !n_edges in
    set_id endpoints i u;
    set_id endpoints (i + 1) v;
    incr n_edges;
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    pool_push comm_pool.(community u) (u / n_comm);
    pool_push comm_pool.(community v) (v / n_comm)
  in
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      add_edge u v
    done
  done;
  (* round targets chosen for the current node: duplicate suppression needs
     only these — the node is new, so it has no other edges *)
  let round = Array.make m (-1) in
  let in_round u v added =
    let dup = ref (v = u) in
    for i = 0 to added - 1 do
      if round.(i) = v then dup := true
    done;
    !dup
  in
  for u = seed_size to n_users - 1 do
    let added = ref 0 in
    let attempts = ref 0 in
    let c = community u in
    let cpool = comm_pool.(c) in
    while !added < m && !attempts < m * 20 do
      incr attempts;
      let use_local = cpool.n > 0 && Sim.Rng.chance rng locality in
      let v =
        if use_local then c + (n_comm * pool_get cpool (Sim.Rng.int rng cpool.n))
        else get_id endpoints (Sim.Rng.int rng (2 * !n_edges))
      in
      if not (in_round u v !added) then begin
        round.(!added) <- v;
        incr added;
        add_edge u v
      end
    done;
    (* guarantee connectivity *)
    if !added = 0 then add_edge u (Sim.Rng.int rng u);
    Array.fill round 0 !added (-1)
  done;
  (* drop the pools and sweep them now, while the heap holds nothing the
     CSR build allocates: without the sweep they would still be resident
     when the adjacency's pages are first touched *)
  Array.iter (fun p -> p.a <- Bytes.empty; p.n <- 0) comm_pool;
  Gc.full_major ();
  (* CSR build: prefix-sum offsets, then scatter both directions of every
     edge in generation order, advancing each row's offset as its cursor,
     then shift the offsets back one row and sort each row in place
     (ascending neighbors). A row arrives as its node's own-round targets
     (at most m, all lower, unsorted) followed by every later node that
     attached to it (ascending), so an insertion sort costs
     O(degree + m²) per row. *)
  let ne = !n_edges in
  let offsets = Array.make (n_users + 1) 0 in
  for u = 0 to n_users - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let adj = ids (2 * ne) in
  for e = 0 to ne - 1 do
    let u = get_id endpoints (2 * e) and v = get_id endpoints ((2 * e) + 1) in
    set_id adj offsets.(u) v;
    offsets.(u) <- offsets.(u) + 1;
    set_id adj offsets.(v) u;
    offsets.(v) <- offsets.(v) + 1
  done;
  (* each row's cursor now stands at the next row's start *)
  Array.blit offsets 0 offsets 1 n_users;
  offsets.(0) <- 0;
  for u = 0 to n_users - 1 do
    let lo = offsets.(u) in
    for i = lo + 1 to offsets.(u + 1) - 1 do
      let x = get_id adj i in
      let j = ref (i - 1) in
      while !j >= lo && get_id adj !j > x do
        set_id adj (!j + 1) (get_id adj !j);
        decr j
      done;
      set_id adj (!j + 1) x
    done
  done;
  let edge_hash = fnv_ids endpoints (2 * ne) in
  { n_users; n_edges = ne; n_communities = n_comm; offsets; adj; edge_hash }

let of_tier tier ~seed = generate ~n_users:(tier_users tier) ~seed ()

let n_users t = t.n_users
let n_edges t = t.n_edges
let degree t u = t.offsets.(u + 1) - t.offsets.(u)

let mean_degree t =
  if t.n_users = 0 then 0. else 2. *. float_of_int t.n_edges /. float_of_int t.n_users

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n_users - 1 do
    if degree t u > !best then best := degree t u
  done;
  !best

let iter_friends t u f =
  for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    f (get_id t.adj i)
  done

let community t u = u mod t.n_communities

let friend t rng u =
  let d = degree t u in
  if d = 0 then u else get_id t.adj (t.offsets.(u) + Sim.Rng.int rng d)

let digest t = Printf.sprintf "%016Lx" t.edge_hash

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

module Ops = struct
  type graph = t

  type t = {
    g : graph;
    n_dcs : int;
    value_size : int;
    rng : Sim.Rng.t;
    mutable payload : int;
    mutable ops : int;
    mutable remote : int;
  }

  let master_dc g ~n_dcs ~user = user mod g.n_communities mod n_dcs
  let wall_key _ ~user = user
  let album_key g ~user = g.n_users + user
  let n_keys g = 2 * g.n_users
  let user_of_key g key = if key < g.n_users then key else key - g.n_users

  let replicas g ~n_dcs ~key =
    let m = master_dc g ~n_dcs ~user:(user_of_key g key) in
    if n_dcs < 2 then [ m ] else [ m; (m + 1) mod n_dcs ]

  let replicated_at g ~n_dcs ~key ~dc =
    let m = master_dc g ~n_dcs ~user:(user_of_key g key) in
    dc = m || (n_dcs >= 2 && dc = (m + 1) mod n_dcs)

  let create g ~n_dcs ~value_size ~seed =
    if n_dcs < 1 then invalid_arg "Scale.Ops.create: n_dcs < 1";
    if n_dcs > g.n_communities then invalid_arg "Scale.Ops.create: more datacenters than communities";
    { g; n_dcs; value_size; rng = Sim.Rng.create ~seed; payload = 0; ops = 0; remote = 0 }

  (* uniform user homed at [dc], O(1): communities are assigned to users
     round-robin (community u = u mod C) and to datacenters round-robin
     (master c = c mod n_dcs), so the users of [dc] are exactly
     { c + k*C | c ≡ dc (mod n_dcs) } — pick a stratum, then a row *)
  let user_at t ~dc =
    let g = t.g in
    let c_count = ((g.n_communities - 1 - dc) / t.n_dcs) + 1 in
    let user = ref (-1) in
    while !user < 0 do
      let c = dc + (t.n_dcs * Sim.Rng.int t.rng c_count) in
      let rows = ((g.n_users - 1 - c) / g.n_communities) + 1 in
      if rows > 0 then user := c + (g.n_communities * Sim.Rng.int t.rng rows)
    done;
    !user

  let fresh_value t =
    t.payload <- t.payload + 1;
    Kvstore.Value.make ~payload:t.payload ~size_bytes:t.value_size

  let resolve_read t ~dc key =
    if replicated_at t.g ~n_dcs:t.n_dcs ~key ~dc then Op.Read { key }
    else begin
      t.remote <- t.remote + 1;
      Op.Remote_read { key; at = master_dc t.g ~n_dcs:t.n_dcs ~user:(user_of_key t.g key) }
    end

  let next t ~dc =
    t.ops <- t.ops + 1;
    let user = user_at t ~dc in
    match kind_of_draw (Sim.Rng.float t.rng 1.0) with
    | Browse_friend_wall ->
      resolve_read t ~dc (wall_key t.g ~user:(friend t.g t.rng user))
    | Browse_friend_albums ->
      resolve_read t ~dc (album_key t.g ~user:(friend t.g t.rng user))
    | Read_own_wall -> Op.Read { key = wall_key t.g ~user }
    | Universal_search ->
      resolve_read t ~dc (wall_key t.g ~user:(Sim.Rng.int t.rng t.g.n_users))
    | Update_own_wall -> Op.Write { key = wall_key t.g ~user; value = fresh_value t }
    | Write_friend_wall ->
      (* writes must land on locally-mastered data; a friend mastered
         elsewhere gets the post on our own wall instead *)
      let fr = friend t.g t.rng user in
      let key =
        if master_dc t.g ~n_dcs:t.n_dcs ~user:fr = dc then wall_key t.g ~user:fr
        else wall_key t.g ~user
      in
      Op.Write { key; value = fresh_value t }
    | Upload_album -> Op.Write { key = album_key t.g ~user; value = fresh_value t }

  let ops_issued t = t.ops
  let remote_fraction t = if t.ops = 0 then 0. else float_of_int t.remote /. float_of_int t.ops
end
