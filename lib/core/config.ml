type hop = To_serializer of int | To_dc of int

type t = {
  tree : Tree.t;
  placement : Sim.Topology.site array;
  dc_sites : Sim.Topology.site array;
  delays : Sim.Time.t array; (* δ by Tree hop number *)
}

let create ~tree ~placement ~dc_sites () =
  if Array.length placement <> Tree.n_serializers tree then
    invalid_arg "Config.create: placement size mismatch";
  if Array.length dc_sites <> Tree.n_dcs tree then
    invalid_arg "Config.create: dc_sites size mismatch";
  { tree; placement; dc_sites; delays = Array.make (Tree.n_hops tree) Sim.Time.zero }

let tree t = t.tree
let placement t = t.placement
let dc_sites t = t.dc_sites
let site_of_serializer t s = t.placement.(s)
let site_of_dc t d = t.dc_sites.(d)
let delays t = t.delays

let hop_number t ~from = function
  | To_serializer b -> Tree.edge_hop t.tree ~from ~via:b
  | To_dc d ->
    if Tree.serializer_of t.tree ~dc:d <> from then invalid_arg "Config: datacenter not attached there";
    Tree.dc_hop t.tree ~dc:d

let set_delay t ~from ~hop d =
  if Sim.Time.compare d Sim.Time.zero < 0 then invalid_arg "Config.set_delay: negative delay";
  t.delays.(hop_number t ~from hop) <- d

let delay t ~from ~hop = t.delays.(hop_number t ~from hop)

let hop_site t = function To_serializer s -> t.placement.(s) | To_dc d -> t.dc_sites.(d)

let hop_latency t topo ~from ~hop =
  let physical = Sim.Topology.latency topo t.placement.(from) (hop_site t hop) in
  Sim.Time.add physical (delay t ~from ~hop)

let metadata_latency t topo ~src_dc ~dst_dc =
  let path = Tree.serializer_path t.tree ~src_dc ~dst_dc in
  match path with
  | [] -> assert false
  | first :: _ ->
    let entry = Sim.Topology.latency topo t.dc_sites.(src_dc) t.placement.(first) in
    let rec hops acc = function
      | a :: (b :: _ as rest) ->
        hops (Sim.Time.add acc (hop_latency t topo ~from:a ~hop:(To_serializer b))) rest
      | [ last ] -> Sim.Time.add acc (hop_latency t topo ~from:last ~hop:(To_dc dst_dc))
      | [] -> acc
    in
    hops entry path

let total_delay t = Array.fold_left Sim.Time.add Sim.Time.zero t.delays

let clear_delays t = Array.fill t.delays 0 (Array.length t.delays) Sim.Time.zero

let copy t =
  { tree = t.tree; placement = Array.copy t.placement; dc_sites = Array.copy t.dc_sites;
    delays = Array.copy t.delays }

let pp ppf t =
  Format.fprintf ppf "config(%a; placement:" Tree.pp t.tree;
  Array.iteri (fun s site -> Format.fprintf ppf " s%d@@%d" s site) t.placement;
  let total = total_delay t in
  if Sim.Time.compare total Sim.Time.zero > 0 then
    Format.fprintf ppf "; total δ=%a" Sim.Time.pp total;
  Format.fprintf ppf ")"
