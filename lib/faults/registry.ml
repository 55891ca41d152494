type link_entry = {
  l : Sim.Link.t;
  site_a : Sim.Topology.site;
  site_b : Sim.Topology.site;
  base_latency : Sim.Time.t;
}

type serializer_entry = {
  crash_all : unit -> unit;
  crash_rep : int -> unit;
  is_down : unit -> bool;
}

type t = {
  links : (string, link_entry) Hashtbl.t;
  serializers : (string, serializer_entry) Hashtbl.t;
  clocks : (string, Sim.Time.t -> unit) Hashtbl.t;
  mutable switch : (graceful:bool -> Saturn.Config.t -> unit) option;
      (* installed by [bind_system]: drives the live system's reconfiguration
         and registers the epoch-2 tree's pieces under the [e2.] prefix *)
}

let create () =
  { links = Hashtbl.create 64; serializers = Hashtbl.create 8; clocks = Hashtbl.create 8;
    switch = None }

let fresh table ~kind name =
  if Hashtbl.mem table name then
    invalid_arg (Printf.sprintf "Faults.Registry: duplicate %s %S" kind name)

let register_link t ~name ~site_a ~site_b l =
  fresh t.links ~kind:"link" name;
  Hashtbl.replace t.links name { l; site_a; site_b; base_latency = Sim.Link.latency l }

let register_serializer t ~name ~site:_ ~crash_all ~crash_replica ~down =
  fresh t.serializers ~kind:"serializer" name;
  Hashtbl.replace t.serializers name { crash_all; crash_rep = crash_replica; is_down = down }

let register_clock t ~name ~bump =
  fresh t.clocks ~kind:"clock" name;
  Hashtbl.replace t.clocks name bump

let missing kind name = invalid_arg (Printf.sprintf "Faults.Registry: unknown %s %S" kind name)

let link_entry t name =
  match Hashtbl.find_opt t.links name with Some e -> e | None -> missing "link" name

let link t name = (link_entry t name).l
let base_latency t name = (link_entry t name).base_latency

let serializer_entry t name =
  match Hashtbl.find_opt t.serializers name with Some e -> e | None -> missing "serializer" name

let crash_serializer t name = (serializer_entry t name).crash_all ()
let crash_replica t name ~replica = (serializer_entry t name).crash_rep replica
let serializer_down t name = (serializer_entry t name).is_down ()

let bump_clock t name d =
  match Hashtbl.find_opt t.clocks name with Some bump -> bump d | None -> missing "clock" name

let sorted_keys table =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let link_names t = sorted_keys t.links
let serializer_names t = sorted_keys t.serializers
let clock_names t = sorted_keys t.clocks

let links_crossing t ~side =
  let inside s = List.mem s side in
  Hashtbl.fold
    (fun name e acc ->
      if inside e.site_a <> inside e.site_b then (name, e.l) :: acc else acc)
    t.links []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- binding built deployments ------------------------------------------ *)

let bind_fabric t fabric =
  let dc_sites = (Saturn.Fabric.params fabric).Saturn.Fabric.dc_sites in
  let n = Array.length dc_sites in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        register_link t
          ~name:(Printf.sprintf "bulk.dc%d->dc%d" i j)
          ~site_a:dc_sites.(i) ~site_b:dc_sites.(j)
          (Saturn.Fabric.bulk_link fabric ~src:i ~dst:j)
    done
  done

(* One service instance's breakable pieces. [prefix] is "" for the original
   tree; the epoch-2 tree installed by a [Switch_config] registers under
   "e2." so its serializers and links are addressable alongside (not in
   place of) the old tree's during the migration window. *)
let register_service t ~prefix ~dc_sites service =
  let config = Saturn.Service.config service in
  for s = 0 to Saturn.Service.n_serializers service - 1 do
    register_serializer t ~name:(Printf.sprintf "%sser%d" prefix s)
      ~site:(Saturn.Config.site_of_serializer config s)
      ~crash_all:(fun () -> Saturn.Service.crash_serializer service s)
      ~crash_replica:(fun replica -> Saturn.Service.crash_replica service ~serializer:s ~replica)
      ~down:(fun () -> Saturn.Service.serializer_down service s)
  done;
  List.iter
    (fun ((a, b), (data, ack)) ->
      let sa = Saturn.Config.site_of_serializer config a in
      let sb = Saturn.Config.site_of_serializer config b in
      register_link t ~name:(Printf.sprintf "%stree.s%d->s%d.data" prefix a b) ~site_a:sa
        ~site_b:sb data;
      register_link t ~name:(Printf.sprintf "%stree.s%d->s%d.ack" prefix a b) ~site_a:sa ~site_b:sb
        ack)
    (Saturn.Service.edge_link_list service);
  Array.iteri
    (fun dc _ ->
      let s = Saturn.Tree.serializer_of (Saturn.Config.tree config) ~dc in
      let dc_site = Saturn.Config.site_of_dc config dc in
      let ser_site = Saturn.Config.site_of_serializer config s in
      let al = Saturn.Service.attach_links service ~dc in
      let reg name ~flip l =
        let site_a, site_b = if flip then (ser_site, dc_site) else (dc_site, ser_site) in
        register_link t ~name:(Printf.sprintf "%sattach.dc%d.%s" prefix dc name) ~site_a ~site_b l
      in
      reg "in.data" ~flip:false al.Saturn.Service.in_data;
      reg "in.ack" ~flip:true al.Saturn.Service.in_ack;
      reg "out.data" ~flip:true al.Saturn.Service.out_data;
      reg "out.ack" ~flip:false al.Saturn.Service.out_ack)
    dc_sites

let bind_system t system =
  let dc_sites = (Saturn.System.params system).Saturn.System.geo.Saturn.Fabric.dc_sites in
  bind_fabric t (Saturn.System.fabric system);
  Array.iteri
    (fun dc _ ->
      register_clock t ~name:(Printf.sprintf "clock.dc%d" dc) ~bump:(fun d ->
          Saturn.Fabric.bump_clock (Saturn.System.fabric system) ~dc d))
    dc_sites;
  match Saturn.System.service system with
  | None -> ()
  | Some service ->
    register_service t ~prefix:"" ~dc_sites service;
    t.switch <-
      Some
        (fun ~graceful config ->
          Saturn.System.switch_config system config ~graceful;
          match Saturn.System.next_service system with
          | Some s2 -> register_service t ~prefix:"e2." ~dc_sites s2
          | None -> ())

let can_switch t = t.switch <> None

let switch_config t ~graceful config =
  match t.switch with
  | Some f -> f ~graceful config
  | None -> invalid_arg "Faults.Registry: no reconfigurable system bound (switch-config)"
