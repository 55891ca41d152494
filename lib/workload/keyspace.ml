type correlation = Exponential | Proportional | Uniform of int | Full

let pp_correlation ppf = function
  | Exponential -> Format.pp_print_string ppf "exponential"
  | Proportional -> Format.pp_print_string ppf "proportional"
  | Uniform d -> Format.fprintf ppf "uniform(%d)" d
  | Full -> Format.pp_print_string ppf "full"

let lat_ms topo a b = Sim.Time.to_ms_float (Sim.Topology.latency topo a b)

let nearest_other topo dc_sites home =
  let n = Array.length dc_sites in
  let best = ref (-1) and best_lat = ref infinity in
  for j = 0 to n - 1 do
    if j <> home then begin
      let l = lat_ms topo dc_sites.(home) dc_sites.(j) in
      if l < !best_lat then begin
        best_lat := l;
        best := j
      end
    end
  done;
  !best

let make ~rng ~topo ~dc_sites ~n_keys correlation =
  let n = Array.length dc_sites in
  let assign key =
    let home = key mod n in
    match correlation with
    | Full -> List.init n Fun.id
    | Uniform degree ->
      let degree = max 1 (min degree n) in
      let others = Array.of_list (List.filter (fun j -> j <> home) (List.init n Fun.id)) in
      Sim.Rng.shuffle rng others;
      home :: Array.to_list (Array.sub others 0 (degree - 1))
    | Exponential | Proportional ->
      let tau = 30. in
      let max_lat =
        Array.fold_left
          (fun acc s -> Array.fold_left (fun a s' -> Float.max a (lat_ms topo s s')) acc dc_sites)
          0. dc_sites
      in
      let joins j =
        if j = home then true
        else begin
          let l = lat_ms topo dc_sites.(home) dc_sites.(j) in
          let p =
            match correlation with
            | Exponential -> exp (-.l /. tau)
            | Proportional -> 0.9 *. (1. -. (l /. (max_lat *. 1.1)))
            | Uniform _ | Full -> assert false
          in
          Sim.Rng.chance rng p
        end
      in
      let set = List.filter joins (List.init n Fun.id) in
      (* guarantee a minimum degree of 2 *)
      if List.length set >= 2 || n < 2 then set
      else List.sort_uniq Int.compare (nearest_other topo dc_sites home :: set)
  in
  Kvstore.Replica_map.create ~n_dcs:n ~n_keys ~assign

let nearest_degree ~topo ~dc_sites ~n_keys ~degree =
  let n = Array.length dc_sites in
  let degree = max 1 (min degree n) in
  let by_distance home =
    let others = List.filter (fun j -> j <> home) (List.init n Fun.id) in
    let sorted =
      List.sort
        (fun a b ->
          Float.compare (lat_ms topo dc_sites.(home) dc_sites.(a)) (lat_ms topo dc_sites.(home) dc_sites.(b)))
        others
    in
    home :: List.filteri (fun i _ -> i < degree - 1) sorted
  in
  let cache = Array.init n by_distance in
  Kvstore.Replica_map.create ~n_dcs:n ~n_keys ~assign:(fun key -> cache.(key mod n))
