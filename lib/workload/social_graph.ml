type t = {
  adj : int array array;
  community : int array;
  n_communities : int;
  n_edges : int;
}

let generate ~n_users ~mean_degree ~communities ~locality ~seed =
  if n_users < 2 then invalid_arg "Social_graph.generate: need at least 2 users";
  if mean_degree < 2 then invalid_arg "Social_graph.generate: mean_degree < 2";
  if communities < 1 then invalid_arg "Social_graph.generate: communities < 1";
  if locality < 0. || locality > 1. then invalid_arg "Social_graph.generate: locality out of [0,1]";
  let rng = Sim.Rng.create ~seed in
  let m = max 1 (mean_degree / 2) in
  let community = Array.init n_users (fun u -> u mod communities) in
  let neighbor_sets = Array.init n_users (fun _ -> Hashtbl.create 8) in
  (* preferential attachment: [targets] repeats every endpoint once per
     incident edge, so sampling it uniformly is degree-proportional; one
     such pool per community plus a global pool support the locality bias *)
  let global_pool = ref [] in
  let local_pool = Array.make communities [] in
  let add_endpoint u =
    global_pool := u :: !global_pool;
    local_pool.(community.(u)) <- u :: local_pool.(community.(u))
  in
  let n_edges = ref 0 in
  let add_edge u v =
    if u <> v && not (Hashtbl.mem neighbor_sets.(u) v) then begin
      Hashtbl.replace neighbor_sets.(u) v ();
      Hashtbl.replace neighbor_sets.(v) u ();
      add_endpoint u;
      add_endpoint v;
      incr n_edges;
      true
    end
    else false
  in
  (* seed clique so the pools are non-empty *)
  let seed_size = min n_users (m + 1) in
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      let _ = add_edge u v in
      ()
    done
  done;
  let pick_from pool =
    match pool with
    | [] -> None
    | l ->
      let arr = Array.of_list l in
      Some (Sim.Rng.pick rng arr)
  in
  for u = seed_size to n_users - 1 do
    let wanted = m in
    let attempts = ref 0 in
    let added = ref 0 in
    while !added < wanted && !attempts < wanted * 20 do
      incr attempts;
      let use_local = Sim.Rng.chance rng locality && local_pool.(community.(u)) <> [] in
      let target = if use_local then pick_from local_pool.(community.(u)) else pick_from !global_pool in
      match target with
      | Some v -> if add_edge u v then incr added
      | None -> attempts := wanted * 20
    done;
    (* guarantee connectivity *)
    if !added = 0 then begin
      let v = Sim.Rng.int rng u in
      let _ = add_edge u v in
      ()
    end
  done;
  let adj =
    Array.map
      (fun set ->
        let arr = Array.make (Hashtbl.length set) 0 in
        let i = ref 0 in
        Hashtbl.iter
          (fun v () ->
            arr.(!i) <- v;
            incr i)
          set;
        Array.sort Int.compare arr;
        arr)
      neighbor_sets
  in
  { adj; community; n_communities = communities; n_edges = !n_edges }

let facebook_scaled ~n_users ~seed =
  (* New Orleans network: mean degree ~30; communities sized a few hundred
     users with ~80% of edges internal *)
  let communities = max 2 (n_users / 250) in
  generate ~n_users ~mean_degree:30 ~communities ~locality:0.8 ~seed

let n_users t = Array.length t.adj
let n_edges t = t.n_edges
let friends t u = t.adj.(u)
let community t u = t.community.(u)

let mean_degree t =
  if n_users t = 0 then 0. else 2. *. float_of_int t.n_edges /. float_of_int (n_users t)

let max_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj
