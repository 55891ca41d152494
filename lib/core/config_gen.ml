type btree = Leaf of int | Node of btree * btree

let rec leaves = function Leaf d -> [ d ] | Node (l, r) -> leaves l @ leaves r
let rec count_nodes = function Leaf _ -> 1 | Node (l, r) -> 1 + count_nodes l + count_nodes r

let insertions t ~dc =
  (* Replacing any subtree s by Node(Leaf dc, s) hangs the new leaf off the
     edge above s; replacing the root covers the new-root case. *)
  let rec at_positions t =
    let here = Node (Leaf dc, t) in
    match t with
    | Leaf _ -> [ here ]
    | Node (l, r) ->
      here
      :: (List.map (fun l' -> Node (l', r)) (at_positions l)
         @ List.map (fun r' -> Node (l, r')) (at_positions r))
  in
  at_positions t

let to_tree bt ~n_dcs =
  match bt with
  | Leaf _ -> invalid_arg "Config_gen.to_tree: a single leaf has no serializer"
  | Node _ ->
    let next_id = ref 0 in
    let edges = ref [] in
    let attach = Array.make n_dcs (-1) in
    (* returns the serializer id of the subtree root *)
    let rec build = function
      | Leaf _ -> assert false
      | Node (l, r) ->
        let id = !next_id in
        incr next_id;
        let handle = function
          | Leaf dc -> attach.(dc) <- id
          | Node _ as child ->
            let cid = build child in
            edges := (id, cid) :: !edges
        in
        handle l;
        handle r;
        id
    in
    let _root = build bt in
    Array.iteri
      (fun dc s -> if s < 0 then invalid_arg (Printf.sprintf "Config_gen.to_tree: dc %d missing" dc))
      attach;
    Tree.create ~n_serializers:!next_id ~edges:!edges ~attach

let fuse config =
  let rec step config =
    let tree = Config.tree config in
    let place = Config.placement config in
    let fusable =
      List.find_opt
        (fun (a, b) ->
          place.(a) = place.(b)
          && Sim.Time.equal (Config.delay config ~from:a ~hop:(To_serializer b)) Sim.Time.zero
          && Sim.Time.equal (Config.delay config ~from:b ~hop:(To_serializer a)) Sim.Time.zero)
        (Tree.edges tree)
    in
    match fusable with
    | None -> config
    | Some (a, b) ->
      (* contract b into a; renumber serializers > b down by one *)
      let rename s = if s = b then a else if s > b then s - 1 else s in
      let n' = Tree.n_serializers tree - 1 in
      let edges' =
        List.filter_map
          (fun (x, y) ->
            if (x = a && y = b) || (x = b && y = a) then None
            else Some (rename x, rename y))
          (Tree.edges tree)
      in
      let attach' = Array.init (Tree.n_dcs tree) (fun dc -> rename (Tree.serializer_of tree ~dc)) in
      let tree' = Tree.create ~n_serializers:n' ~edges:edges' ~attach:attach' in
      let place' = Array.init n' (fun s -> place.(if s >= b then s + 1 else s)) in
      (* b inherited a's site, so dropping b's entry keeps placements right *)
      place'.(rename a) <- place.(a);
      let config' = Config.create ~tree:tree' ~placement:place' ~dc_sites:(Config.dc_sites config) () in
      (* carry δ over every surviving edge, both directions, read under
         the old names *)
      List.iter
        (fun (x, y) ->
          if not ((x = a && y = b) || (x = b && y = a)) then
            List.iter
              (fun (u, v) ->
                let d = Config.delay config ~from:u ~hop:(To_serializer v) in
                if not (Sim.Time.equal d Sim.Time.zero) then
                  Config.set_delay config' ~from:(rename u) ~hop:(To_serializer (rename v)) d)
              [ (x, y); (y, x) ])
        (Tree.edges tree);
      for dc = 0 to Tree.n_dcs tree - 1 do
        let s = Tree.serializer_of tree ~dc in
        let d = Config.delay config ~from:s ~hop:(To_dc dc) in
        if not (Sim.Time.equal d Sim.Time.zero) then
          Config.set_delay config' ~from:(rename s) ~hop:(To_dc dc) d
      done;
      step config'
  in
  step config

let find_configurations ?(threshold = 25.0) ?(pool = 10) ?(seed = 42) ?insertion_order ~top problem =
  let n = Array.length problem.Config_solver.dc_sites in
  if n < 2 then invalid_arg "Config_gen.find_configuration: need at least 2 datacenters";
  let order = match insertion_order with Some o -> o | None -> List.init n Fun.id in
  (match List.sort_uniq Int.compare order with
  | sorted when sorted = List.init n Fun.id -> ()
  | _ -> invalid_arg "Config_gen.find_configuration: order must be a permutation of dcs");
  let rng = Sim.Rng.create ~seed in
  (* rank a partial tree on the sub-problem over the leaves it contains *)
  let rank bt =
    let present = List.sort Int.compare (leaves bt) in
    let f = List.length present in
    let index = Hashtbl.create 8 in
    List.iteri (fun i dc -> Hashtbl.replace index dc i) present;
    let orig = Array.of_list present in
    let rec relabel = function
      | Leaf dc -> Leaf (Hashtbl.find index dc)
      | Node (l, r) -> Node (relabel l, relabel r)
    in
    let sub_sites = Array.map (fun dc -> problem.Config_solver.dc_sites.(dc)) orig in
    let crit = problem.Config_solver.crit in
    let sub_crit =
      {
        Mismatch.n_dcs = f;
        weight = (fun i j -> crit.Mismatch.weight orig.(i) orig.(j));
        bulk = (fun i j -> crit.Mismatch.bulk orig.(i) orig.(j));
      }
    in
    let sub_problem = { problem with Config_solver.dc_sites = sub_sites; crit = sub_crit } in
    let tree = to_tree (relabel bt) ~n_dcs:f in
    let _, score = Config_solver.optimize_placement ~fast:true ~restarts:2 ~rng sub_problem tree in
    score
  in
  let filter ranked =
    (* FILTER of Alg. 3: cut at the first ranking gap wider than the
       threshold; additionally cap the pool. *)
    let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) ranked in
    let rec keep prev n = function
      | [] -> []
      | (t, s) :: rest ->
        if n >= pool || s -. prev > threshold then []
        else (t, s) :: keep s (n + 1) rest
    in
    match sorted with [] -> [] | (t, s) :: rest -> (t, s) :: keep s 1 rest
  in
  match order with
  | first :: second :: rest ->
    let init = Node (Leaf first, Leaf second) in
    let final_pool =
      List.fold_left
        (fun trees dc ->
          let expanded = List.concat_map (fun (t, _) -> insertions t ~dc) trees in
          let ranked = List.map (fun t -> (t, rank t)) expanded in
          filter ranked)
        [ (init, 0.) ]
        rest
    in
    let solved =
      List.map
        (fun (bt, _) ->
          let tree = to_tree bt ~n_dcs:n in
          let config, score = Config_solver.optimize_placement ~fast:false ~restarts:3 ~rng problem tree in
          (fuse config, score))
        final_pool
    in
    (match List.sort (fun (_, a) (_, b) -> Float.compare a b) solved with
    | [] -> invalid_arg "Config_gen.find_configurations: empty pool"
    | ranked -> List.filteri (fun i _ -> i < top) ranked)
  | _ -> invalid_arg "Config_gen.find_configurations: need at least 2 datacenters"

let find_configuration ?threshold ?pool ?seed ?insertion_order problem =
  match find_configurations ?threshold ?pool ?seed ?insertion_order ~top:1 problem with
  | best :: _ -> best
  | [] -> assert false
