type problem = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  candidates : Sim.Topology.site array;
  crit : Mismatch.t;
}

let default_candidates ~dc_sites =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        out := s :: !out
      end)
    dc_sites;
  Array.of_list (List.rev !out)

(* One (problem, tree) compiled for scoring. Pairs are the weighted pairs
   in Mismatch.fold_pairs order; each carries its serializer path and the
   Tree hop number of every hop along it (path.(k) → path.(k + 1), then the
   last serializer → the destination datacenter). The objective and lower
   bound sum over pairs in that order; the delay descent visits pairs in
   reverse order and hops in first-seen order over that visit, which fixes
   its float summation order and its tie-breaks. *)
type ctx = {
  src_site : int array;
  dst_site : int array;
  weight : float array;
  beta_ms : float array;
  path : int array array;
  hops : int array array;
  order : int array; (* hops any pair crosses, first-seen in visit order *)
  users : int array array; (* by hop number: the pairs crossing it, in visit order *)
  n_sites : int;
  lat_us : int array; (* site × site, row-major *)
  lat_ms : float array;
  (* scratch *)
  base : float array; (* by pair: physical path latency in ms *)
  delta : float array; (* by hop number: δ in ms *)
  trial_us : int array; (* by hop number: δ in µs being scored *)
  med_value : float array;
  med_weight : float array;
  med_index : int array;
}

let compile problem tree =
  let pairs =
    List.rev (Mismatch.fold_pairs problem.crit (fun acc src dst c -> (src, dst, c) :: acc) [])
    |> Array.of_list
  in
  let n_pairs = Array.length pairs in
  let path =
    Array.map
      (fun (src, dst, _) -> Array.of_list (Tree.serializer_path tree ~src_dc:src ~dst_dc:dst))
      pairs
  in
  let hops =
    Array.mapi
      (fun p (_, dst, _) ->
        let ser = path.(p) in
        let last = Array.length ser - 1 in
        Array.init (last + 1) (fun k ->
            if k < last then Tree.edge_hop tree ~from:ser.(k) ~via:ser.(k + 1) else Tree.dc_hop tree ~dc:dst))
      pairs
  in
  let n_hops = Tree.n_hops tree in
  let seen = Array.make n_hops false in
  let order = ref [] in
  let users = Array.make n_hops [] in
  for p = 0 to n_pairs - 1 do
    (* reverse visit order, so consing leaves [users] in visit order *)
    Array.iter (fun h -> users.(h) <- p :: users.(h)) hops.(p)
  done;
  for p = n_pairs - 1 downto 0 do
    Array.iter
      (fun h ->
        if not seen.(h) then begin
          seen.(h) <- true;
          order := h :: !order
        end)
      hops.(p)
  done;
  let n_sites = Sim.Topology.n_sites problem.topo in
  let lat_us =
    Array.init (n_sites * n_sites) (fun i ->
        Sim.Time.to_us (Sim.Topology.latency problem.topo (i / n_sites) (i mod n_sites)))
  in
  {
    src_site = Array.map (fun (src, _, _) -> problem.dc_sites.(src)) pairs;
    dst_site = Array.map (fun (_, dst, _) -> problem.dc_sites.(dst)) pairs;
    weight = Array.map (fun (_, _, c) -> c) pairs;
    beta_ms = Array.map (fun (src, dst, _) -> Sim.Time.to_ms_float (problem.crit.bulk src dst)) pairs;
    path;
    hops;
    order = Array.of_list (List.rev !order);
    users = Array.map Array.of_list users;
    n_sites;
    lat_us;
    lat_ms = Array.map (fun us -> Sim.Time.to_ms_float (Sim.Time.of_us us)) lat_us;
    base = Array.make n_pairs 0.;
    delta = Array.make n_hops 0.;
    trial_us = Array.make n_hops Sim.Time.zero;
    med_value = Array.make n_pairs 0.;
    med_weight = Array.make n_pairs 0.;
    med_index = Array.make n_pairs 0;
  }

(* Metadata latency of pair [p] in µs under [place] and δ table [delays]:
   what Config.metadata_latency computes, over the compiled path. *)
let lambda_us ctx place delays p =
  let ser = ctx.path.(p) and hops = ctx.hops.(p) in
  let last = Array.length ser - 1 in
  let acc = ref ctx.lat_us.((ctx.src_site.(p) * ctx.n_sites) + place.(ser.(0))) in
  for k = 0 to last do
    let next_site = if k < last then place.(ser.(k + 1)) else ctx.dst_site.(p) in
    acc := !acc + ctx.lat_us.((place.(ser.(k)) * ctx.n_sites) + next_site) + delays.(hops.(k))
  done;
  !acc

(* The Definition 2 sum (Mismatch), in weighted ms. *)
let objective ctx place delays =
  let acc = ref 0. in
  for p = 0 to Array.length ctx.weight - 1 do
    let gap = Sim.Time.to_ms_float (lambda_us ctx place delays p) -. ctx.beta_ms.(p) in
    acc := !acc +. (ctx.weight.(p) *. Float.abs gap)
  done;
  !acc

(* Objective achievable if delays could be chosen per pair: only paths
   slower than bulk count, since a delay cannot speed a path up. *)
let lower_bound ctx place delays =
  let acc = ref 0. in
  for p = 0 to Array.length ctx.weight - 1 do
    let gap = Sim.Time.to_ms_float (lambda_us ctx place delays p) -. ctx.beta_ms.(p) in
    if gap > 0. then acc := !acc +. (ctx.weight.(p) *. gap)
  done;
  !acc

(* Physical path latency of pair [p] in ms, summed hop by hop. *)
let base_ms ctx place p =
  let ser = ctx.path.(p) in
  let last = Array.length ser - 1 in
  let acc = ref ctx.lat_ms.((ctx.src_site.(p) * ctx.n_sites) + place.(ser.(0))) in
  for k = 0 to last do
    let next_site = if k < last then place.(ser.(k + 1)) else ctx.dst_site.(p) in
    acc := !acc +. ctx.lat_ms.((place.(ser.(k)) * ctx.n_sites) + next_site)
  done;
  !acc

let lambda_ms ctx p =
  let hops = ctx.hops.(p) in
  let sum = ref 0. in
  for k = 0 to Array.length hops - 1 do
    sum := !sum +. ctx.delta.(hops.(k))
  done;
  ctx.base.(p) +. !sum

(* Sum of |λ − β| over pairs in visit order, with δ from [ctx.delta]. *)
let descent_objective ctx =
  let acc = ref 0. in
  for p = Array.length ctx.weight - 1 downto 0 do
    acc := !acc +. (ctx.weight.(p) *. Float.abs (lambda_ms ctx p -. ctx.beta_ms.(p)))
  done;
  !acc

(* Weighted median of the first [m] (value, weight) scratch entries: a
   stable insertion sort by value keeps equal values in visit order. *)
let weighted_median ctx m =
  let v = ctx.med_value and w = ctx.med_weight and idx = ctx.med_index in
  for i = 0 to m - 1 do
    idx.(i) <- i
  done;
  for i = 1 to m - 1 do
    let key = idx.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare v.(idx.(!j)) v.(key) > 0 do
      idx.(!j + 1) <- idx.(!j);
      decr j
    done;
    idx.(!j + 1) <- key
  done;
  let total = ref 0. in
  for i = 0 to m - 1 do
    total := !total +. w.(idx.(i))
  done;
  let half = !total /. 2. in
  let acc = ref 0. and i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < m do
    let wi = w.(idx.(!i)) in
    if !acc +. wi >= half then found := idx.(!i) else acc := !acc +. wi;
    incr i
  done;
  if !found < 0 then 0. else v.(!found)

(* Exact coordinate descent over δ for placement [place], leaving the
   minimizer in [ctx.delta]: each hop in turn moves to the weighted median
   of the δ that would zero each crossing pair's mismatch. *)
let descend ctx place =
  for p = 0 to Array.length ctx.base - 1 do
    ctx.base.(p) <- base_ms ctx place p
  done;
  Array.fill ctx.delta 0 (Array.length ctx.delta) 0.;
  let pass () =
    Array.iter
      (fun h ->
        let users = ctx.users.(h) in
        let cur = ctx.delta.(h) in
        Array.iteri
          (fun i p ->
            ctx.med_value.(i) <- ctx.beta_ms.(p) -. (lambda_ms ctx p -. cur);
            ctx.med_weight.(i) <- ctx.weight.(p))
          users;
        ctx.delta.(h) <- Float.max 0. (weighted_median ctx (Array.length users)))
      ctx.order
  in
  let obj = ref (descent_objective ctx) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 50 do
    incr passes;
    pass ();
    let o = descent_objective ctx in
    improved := o < !obj -. 1e-9;
    obj := o
  done

(* Writes the descended δ, rounded to µs, into the hops the pairs cross. *)
let install ctx delays =
  Array.iter
    (fun h -> delays.(h) <- Sim.Time.of_us (int_of_float (Float.round (ctx.delta.(h) *. 1000.))))
    ctx.order

let optimize_compiled ctx config =
  let place = Config.placement config and delays = Config.delays config in
  descend ctx place;
  install ctx delays;
  objective ctx place delays

(* The objective [optimize_compiled] would reach from [place] and [delays],
   leaving both untouched. *)
let delayed_score ctx place delays =
  descend ctx place;
  Array.blit delays 0 ctx.trial_us 0 (Array.length delays);
  install ctx ctx.trial_us;
  objective ctx place ctx.trial_us

let optimize_delays problem config = optimize_compiled (compile problem (Config.tree config)) config

let initial_placement problem tree ~variant rng =
  let n = Tree.n_serializers tree in
  Array.init n (fun s ->
      if variant = 0 then begin
        (* seed: place each serializer at the site of a nearby attached DC *)
        match Tree.dcs_at tree s with
        | dc :: _ -> problem.dc_sites.(dc)
        | [] ->
          (* internal serializer without attached DCs: site of the first DC
             found through its first neighbor *)
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

let placement_descent problem place ~score =
  let n = Array.length place in
  let best = ref (score place) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 8 do
    incr passes;
    improved := false;
    for s = 0 to n - 1 do
      let original = place.(s) in
      let best_site = ref original in
      Array.iter
        (fun w ->
          if w <> !best_site then begin
            place.(s) <- w;
            let v = score place in
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

let optimize_placement ?(fast = false) ?(restarts = 3) ~rng problem tree =
  let ctx = compile problem tree in
  let run variant =
    let placement = initial_placement problem tree ~variant rng in
    let config = Config.create ~tree ~placement ~dc_sites:(Array.copy problem.dc_sites) () in
    let delays = Config.delays config in
    placement_descent problem placement ~score:(fun place -> lower_bound ctx place delays);
    if not fast then
      (* refine: one descent round scoring with full delay optimization *)
      placement_descent problem placement ~score:(fun place -> delayed_score ctx place delays);
    let obj = optimize_compiled ctx config in
    (config, obj)
  in
  let best = ref (run 0) in
  for variant = 1 to restarts - 1 do
    let candidate = run variant in
    if snd candidate < snd !best then best := candidate
  done;
  !best

let solve ?restarts ~seed problem tree =
  let rng = Sim.Rng.create ~seed in
  optimize_placement ?restarts ~rng problem tree

let solve_exact ?(max_enum = 200_000) problem tree =
  let n = Tree.n_serializers tree in
  let w = Array.length problem.candidates in
  let total =
    let rec pow acc i = if i = 0 then acc else if acc > max_enum then acc else pow (acc * w) (i - 1) in
    pow 1 n
  in
  if total > max_enum then
    invalid_arg
      (Printf.sprintf "Config_solver.solve_exact: %d placements exceed max_enum=%d" total max_enum);
  let ctx = compile problem tree in
  let best = ref None in
  let placement = Array.make n problem.candidates.(0) in
  let rec enumerate s =
    if s = n then begin
      let config =
        Config.create ~tree ~placement:(Array.copy placement) ~dc_sites:(Array.copy problem.dc_sites) ()
      in
      let score = optimize_compiled ctx config in
      match !best with
      | Some (_, b) when b <= score -> ()
      | Some _ | None -> best := Some (config, score)
    end
    else
      Array.iter
        (fun site ->
          placement.(s) <- site;
          enumerate (s + 1))
        problem.candidates
  in
  enumerate 0;
  match !best with Some r -> r | None -> assert false
