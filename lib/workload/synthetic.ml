type params = {
  n_keys : int;
  value_size : int;
  read_ratio : float;
  remote_read_ratio : float;
  seed : int;
}

let default =
  { n_keys = 1024; value_size = 2; read_ratio = 0.9; remote_read_ratio = 0.; seed = 7 }

type t = {
  p : params;
  rng : Sim.Rng.t;
  local_keys : int array array; (* per dc *)
  remote_keys : int array array; (* per dc: keys NOT replicated there *)
  nearest_holder : (int * int, int) Hashtbl.t; (* (dc, key) -> closest replica dc *)
  nearest_other_dc : int array;
  mutable payload : int;
}

let create p ~rmap ~topo ~dc_sites =
  let n = Kvstore.Replica_map.n_dcs rmap in
  let local_keys =
    Array.init n (fun dc -> Array.of_list (Kvstore.Replica_map.local_keys rmap ~dc))
  in
  let remote_keys =
    Array.init n (fun dc ->
        Array.of_list
          (List.filter
             (fun key -> not (Kvstore.Replica_map.replicates rmap ~dc ~key))
             (List.init p.n_keys Fun.id)))
  in
  let lat a b = Sim.Time.to_ms_float (Sim.Topology.latency topo dc_sites.(a) dc_sites.(b)) in
  let nearest_holder = Hashtbl.create 1024 in
  Array.iteri
    (fun dc keys ->
      Array.iter
        (fun key ->
          let holders = Kvstore.Replica_map.replicas rmap ~key in
          let best =
            List.fold_left
              (fun acc j ->
                match acc with
                | None -> Some j
                | Some b -> if lat dc j < lat dc b then Some j else acc)
              None holders
          in
          match best with
          | Some b -> Hashtbl.replace nearest_holder (dc, key) b
          | None -> ())
        keys)
    remote_keys;
  let nearest_other_dc =
    Array.init n (fun dc ->
        let best = ref (-1) and best_lat = ref infinity in
        for j = 0 to n - 1 do
          if j <> dc && lat dc j < !best_lat then begin
            best := j;
            best_lat := lat dc j
          end
        done;
        !best)
  in
  { p; rng = Sim.Rng.create ~seed:p.seed; local_keys; remote_keys; nearest_holder;
    nearest_other_dc; payload = 0 }

let fresh_payload t =
  t.payload <- t.payload + 1;
  t.payload

let next t ~dc =
  let is_read = Sim.Rng.chance t.rng t.p.read_ratio in
  if is_read then begin
    let remote = Sim.Rng.chance t.rng t.p.remote_read_ratio in
    if remote && Array.length t.remote_keys.(dc) > 0 then begin
      let key = Sim.Rng.pick t.rng t.remote_keys.(dc) in
      Op.Remote_read { key; at = Hashtbl.find t.nearest_holder (dc, key) }
    end
    else if remote && t.nearest_other_dc.(dc) >= 0 then begin
      (* full replication: exercise the remote-attach path anyway *)
      let at = t.nearest_other_dc.(dc) in
      let key = Sim.Rng.pick t.rng t.local_keys.(at) in
      Op.Remote_read { key; at }
    end
    else Op.Read { key = Sim.Rng.pick t.rng t.local_keys.(dc) }
  end
  else begin
    let key = Sim.Rng.pick t.rng t.local_keys.(dc) in
    Op.Write
      { key; value = Kvstore.Value.make ~payload:(fresh_payload t) ~size_bytes:t.p.value_size }
  end
