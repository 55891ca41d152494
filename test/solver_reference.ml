(* The original list-based Algorithm-3 solver, kept as the reference the
   compiled solver in Saturn.Config_solver is checked against: pairs as
   lists of (from, hop) tuples, δ in a Hashtbl keyed by an encoded hop,
   and the objective and lower bound re-walking Tree.serializer_path
   through Config.metadata_latency. Same restarts, RNG draws, pass limits,
   tie-breaks and float summation order as the library solver, so the two
   must agree to the bit. *)

open Saturn

let pair_mismatch_ms (crit : Mismatch.t) config topo ~src ~dst =
  let lambda = Config.metadata_latency config topo ~src_dc:src ~dst_dc:dst in
  Float.abs (Sim.Time.to_ms_float lambda -. Sim.Time.to_ms_float (crit.bulk src dst))

let objective crit config topo =
  Mismatch.fold_pairs crit
    (fun acc i j c -> acc +. (c *. pair_mismatch_ms crit config topo ~src:i ~dst:j))
    0.

let lower_bound (crit : Mismatch.t) config topo =
  Mismatch.fold_pairs crit
    (fun acc i j c ->
      let lambda = Config.metadata_latency config topo ~src_dc:i ~dst_dc:j in
      let gap = Sim.Time.to_ms_float lambda -. Sim.Time.to_ms_float (crit.bulk i j) in
      if gap > 0. then acc +. (c *. gap) else acc)
    0.

type pair = {
  src : int;
  dst : int;
  weight : float;
  beta_ms : float;
  hops : (int * Config.hop) list;
}

let pairs_of (problem : Config_solver.problem) config =
  let tree = Config.tree config in
  let n = Array.length problem.dc_sites in
  let out = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let c = problem.crit.weight src dst in
        if c > 0. then begin
          let path = Tree.serializer_path tree ~src_dc:src ~dst_dc:dst in
          let rec hops = function
            | a :: (b :: _ as rest) -> (a, Config.To_serializer b) :: hops rest
            | [ last ] -> [ (last, Config.To_dc dst) ]
            | [] -> []
          in
          let beta_ms = Sim.Time.to_ms_float (problem.crit.bulk src dst) in
          out := { src; dst; weight = c; beta_ms; hops = hops path } :: !out
        end
      end
    done
  done;
  !out

let base_ms (problem : Config_solver.problem) config pair =
  let tree = Config.tree config in
  match Tree.serializer_path tree ~src_dc:pair.src ~dst_dc:pair.dst with
  | [] -> assert false
  | first :: _ as path ->
    let lat a b = Sim.Time.to_ms_float (Sim.Topology.latency problem.topo a b) in
    let place = Config.placement config in
    let entry = lat problem.dc_sites.(pair.src) place.(first) in
    let rec walk acc = function
      | a :: (b :: _ as rest) -> walk (acc +. lat place.(a) place.(b)) rest
      | [ last ] -> acc +. lat place.(last) problem.dc_sites.(pair.dst)
      | [] -> acc
    in
    walk entry path

let weighted_median targets =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) targets in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. sorted in
  let rec walk acc = function
    | [] -> 0.
    | (v, w) :: rest -> if acc +. w >= total /. 2. then v else walk (acc +. w) rest
  in
  walk 0. sorted

let optimize_delays (problem : Config_solver.problem) config =
  let pairs = pairs_of problem config in
  let bases = List.map (fun p -> (p, base_ms problem config p)) pairs in
  let deltas : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let encode (from, hop) =
    (from, match hop with Config.To_serializer s -> s | Config.To_dc d -> -d - 1)
  in
  let delta h = Option.value ~default:0. (Hashtbl.find_opt deltas (encode h)) in
  let lambda (p, base) = base +. List.fold_left (fun acc h -> acc +. delta h) 0. p.hops in
  let current () =
    List.fold_left
      (fun acc pb -> acc +. ((fst pb).weight *. Float.abs (lambda pb -. (fst pb).beta_ms)))
      0. bases
  in
  let all_hops =
    let seen = Hashtbl.create 32 in
    List.concat_map (fun p -> p.hops) pairs
    |> List.filter (fun h ->
           let k = encode h in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             true
           end)
  in
  let pass () =
    List.iter
      (fun hop ->
        let key = encode hop in
        let affected =
          List.filter (fun (p, _) -> List.exists (fun h -> encode h = key) p.hops) bases
        in
        if affected <> [] then begin
          let cur = delta hop in
          let targets =
            List.map (fun ((p, _) as pb) -> (p.beta_ms -. (lambda pb -. cur), p.weight)) affected
          in
          Hashtbl.replace deltas key (Float.max 0. (weighted_median targets))
        end)
      all_hops
  in
  let obj = ref (current ()) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 50 do
    incr passes;
    pass ();
    let o = current () in
    improved := o < !obj -. 1e-9;
    obj := o
  done;
  List.iter
    (fun ((from, hop) as h) ->
      Config.set_delay config ~from ~hop
        (Sim.Time.of_us (int_of_float (Float.round (delta h *. 1000.)))))
    all_hops;
  objective problem.crit config problem.topo

let initial_placement (problem : Config_solver.problem) tree ~variant rng =
  Array.init (Tree.n_serializers tree) (fun s ->
      if variant = 0 then begin
        match Tree.dcs_at tree s with
        | dc :: _ -> problem.dc_sites.(dc)
        | [] ->
          let rec probe at from =
            match Tree.dcs_at tree at with
            | dc :: _ -> problem.dc_sites.(dc)
            | [] -> (
              match List.filter (fun x -> x <> from) (Tree.neighbors tree at) with
              | next :: _ -> probe next at
              | [] -> problem.dc_sites.(0) )
          in
          probe s (-1)
      end
      else Sim.Rng.pick rng problem.candidates)

let placement_descent (problem : Config_solver.problem) config ~score =
  let place = Config.placement config in
  let best = ref (score config) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 8 do
    incr passes;
    improved := false;
    for s = 0 to Array.length place - 1 do
      let best_site = ref place.(s) in
      Array.iter
        (fun w ->
          if w <> !best_site then begin
            place.(s) <- w;
            let v = score config in
            if v < !best -. 1e-9 then begin
              best := v;
              best_site := w;
              improved := true
            end
          end)
        problem.candidates;
      place.(s) <- !best_site
    done
  done

let optimize_placement ?(fast = false) ?(restarts = 3) ~rng (problem : Config_solver.problem) tree =
  let run variant =
    let placement = initial_placement problem tree ~variant rng in
    let config = Config.create ~tree ~placement ~dc_sites:(Array.copy problem.dc_sites) () in
    placement_descent problem config ~score:(fun c -> lower_bound problem.crit c problem.topo);
    if not fast then
      placement_descent problem config ~score:(fun c -> optimize_delays problem (Config.copy c));
    let obj = optimize_delays problem config in
    (config, obj)
  in
  let best = ref (run 0) in
  for variant = 1 to restarts - 1 do
    let candidate = run variant in
    if snd candidate < snd !best then best := candidate
  done;
  !best

(* Config_gen.find_configurations' search loop over the reference solver. *)
let find_configurations ?(threshold = 25.0) ?(pool = 10) ?(seed = 42) ~top
    (problem : Config_solver.problem) =
  let n = Array.length problem.dc_sites in
  let rng = Sim.Rng.create ~seed in
  let rank bt =
    let present = List.sort Int.compare (Config_gen.leaves bt) in
    let index = Hashtbl.create 8 in
    List.iteri (fun i dc -> Hashtbl.replace index dc i) present;
    let orig = Array.of_list present in
    let rec relabel = function
      | Config_gen.Leaf dc -> Config_gen.Leaf (Hashtbl.find index dc)
      | Node (l, r) -> Node (relabel l, relabel r)
    in
    let crit = problem.crit in
    let sub_problem =
      { problem with
        dc_sites = Array.map (fun dc -> problem.dc_sites.(dc)) orig;
        crit =
          { Mismatch.n_dcs = Array.length orig;
            weight = (fun i j -> crit.weight orig.(i) orig.(j));
            bulk = (fun i j -> crit.bulk orig.(i) orig.(j)) };
      }
    in
    let tree = Config_gen.to_tree (relabel bt) ~n_dcs:(Array.length orig) in
    snd (optimize_placement ~fast:true ~restarts:2 ~rng sub_problem tree)
  in
  let filter ranked =
    let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) ranked in
    let rec keep prev n = function
      | [] -> []
      | (t, s) :: rest -> if n >= pool || s -. prev > threshold then [] else (t, s) :: keep s (n + 1) rest
    in
    match sorted with [] -> [] | (t, s) :: rest -> (t, s) :: keep s 1 rest
  in
  match List.init n Fun.id with
  | first :: second :: rest ->
    let final_pool =
      List.fold_left
        (fun trees dc ->
          let expanded = List.concat_map (fun (t, _) -> Config_gen.insertions t ~dc) trees in
          filter (List.map (fun t -> (t, rank t)) expanded))
        [ (Config_gen.Node (Leaf first, Leaf second), 0.) ]
        rest
    in
    let solved =
      List.map
        (fun (bt, _) ->
          let tree = Config_gen.to_tree bt ~n_dcs:n in
          let config, score = optimize_placement ~fast:false ~restarts:3 ~rng problem tree in
          (Config_gen.fuse config, score))
        final_pool
    in
    List.filteri (fun i _ -> i < top) (List.sort (fun (_, a) (_, b) -> Float.compare a b) solved)
  | _ -> invalid_arg "Solver_reference.find_configurations: need at least 2 datacenters"
