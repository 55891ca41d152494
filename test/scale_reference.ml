(* The generator that Workload.Scale's 16-bit community pools replaced,
   kept as the reference the library generator is checked against: every
   community pool holds full 32-bit vertex ids, the CSR scatter advances a
   separate cursor copy of the row offsets, and the digest folds all eight
   little-endian bytes of each id one FNV step at a time. Same parameter
   defaults, RNG draws, pool presizing and edge order as the library
   generator, so driven alike the two must produce the same edge stream
   and the same CSR rows. *)

let get_id b i = Int32.to_int (Bytes.get_int32_ne b (4 * i))
let set_id b i x = Bytes.set_int32_ne b (4 * i) (Int32.of_int x)
let ids n = Bytes.make (4 * n) '\000'

type vec = { mutable a : Bytes.t; mutable n : int }

let vec_make cap = { a = ids (max cap 4); n = 0 }

let vec_push v x =
  let cap = Bytes.length v.a / 4 in
  if v.n = cap then begin
    let bigger = ids (cap * 2) in
    Bytes.blit v.a 0 bigger 0 (4 * v.n);
    v.a <- bigger
  end;
  set_id v.a v.n x;
  v.n <- v.n + 1

type t = {
  n_users : int;
  n_edges : int;
  offsets : int array; (* CSR row starts, length n_users + 1 *)
  adj : Bytes.t; (* CSR neighbor ids, rows ascending *)
  edge_hash : int64;
}

(* FNV-1a over the 8 little-endian bytes of each id, one step per byte *)
let fnv_ids a len =
  let h = ref Sim.Fnv.offset in
  for j = 0 to len - 1 do
    let x = get_id a j in
    for i = 0 to 7 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int ((x lsr (i * 8)) land 0xff))) Sim.Fnv.prime
    done
  done;
  !h

let generate ~n_users ?(mean_degree = 30) ?(locality = 0.8) ?communities ~seed () =
  let n_comm = match communities with Some c -> c | None -> max 2 (n_users / 250) in
  let rng = Sim.Rng.create ~seed in
  let m = max 1 (mean_degree / 2) in
  let community u = u mod n_comm in
  let seed_size = min n_users (m + 1) in
  let max_edges = (seed_size * (seed_size - 1) / 2) + ((n_users - seed_size) * m) + n_users in
  let endpoints = ids (2 * max_edges) in
  let deg = Array.make n_users 0 in
  let n_edges = ref 0 in
  let comm_pool = Array.init n_comm (fun _ -> vec_make (2 * m * ((n_users / n_comm) + 1))) in
  let add_edge u v =
    let i = 2 * !n_edges in
    set_id endpoints i u;
    set_id endpoints (i + 1) v;
    incr n_edges;
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    vec_push comm_pool.(community u) u;
    vec_push comm_pool.(community v) v
  in
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      add_edge u v
    done
  done;
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
    let cpool = comm_pool.(community u) in
    while !added < m && !attempts < m * 20 do
      incr attempts;
      let use_local = cpool.n > 0 && Sim.Rng.chance rng locality in
      let v =
        if use_local then get_id cpool.a (Sim.Rng.int rng cpool.n)
        else get_id endpoints (Sim.Rng.int rng (2 * !n_edges))
      in
      if not (in_round u v !added) then begin
        round.(!added) <- v;
        incr added;
        add_edge u v
      end
    done;
    if !added = 0 then add_edge u (Sim.Rng.int rng u);
    Array.fill round 0 !added (-1)
  done;
  let ne = !n_edges in
  let offsets = Array.make (n_users + 1) 0 in
  for u = 0 to n_users - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let cursor = Array.copy offsets in
  let adj = ids (2 * ne) in
  for e = 0 to ne - 1 do
    let u = get_id endpoints (2 * e) and v = get_id endpoints ((2 * e) + 1) in
    set_id adj cursor.(u) v;
    cursor.(u) <- cursor.(u) + 1;
    set_id adj cursor.(v) u;
    cursor.(v) <- cursor.(v) + 1
  done;
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
  { n_users; n_edges = ne; offsets; adj; edge_hash = fnv_ids endpoints (2 * ne) }

let digest t = Printf.sprintf "%016Lx" t.edge_hash

let iter_friends t u f =
  for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    f (get_id t.adj i)
  done
