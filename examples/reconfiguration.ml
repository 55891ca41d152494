(* Online reconfiguration (§6.2): switch serializer trees without stopping
   the world.

     dune exec examples/reconfiguration.exe

   Live writers keep the system busy while the tree changes from a single
   serializer in Virginia to a two-serializer chain. The epoch-change
   protocol drains the old tree, buffers the new one, and no update is
   lost, duplicated or reordered. Then the example crashes the new tree's
   serializers and shows the timestamp fallback keeping data flowing. *)

let () =
  let engine = Sim.Engine.create () in
  let n_dcs = 3 in
  let n_keys = 32 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys in
  let star =
    Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs) ~placement:[| dc_sites.(0) |]
      ~dc_sites:(Array.copy dc_sites) ()
  in
  let chain =
    let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1; 1 |] in
    Saturn.Config.create ~tree ~placement:[| dc_sites.(0); dc_sites.(2) |]
      ~dc_sites:(Array.copy dc_sites) ()
  in
  let params = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config:star in
  let system =
    Saturn.System.create ~observer:(Stats.Observer.create ()) engine params Saturn.Fabric.no_hooks
  in
  let say fmt = Format.printf ("[%a] " ^^ fmt ^^ "@.") Sim.Time.pp (Sim.Engine.now engine) in

  (* live writers *)
  let issued = ref 0 in
  let stop_at = Sim.Time.of_sec 3. in
  let payload = ref 0 in
  let rec writer dc () =
    if Sim.Time.compare (Sim.Engine.now engine) stop_at < 0 then begin
      incr payload;
      Saturn.System.update system ~client:dc ~home:dc_sites.(dc) ~dc ~key:(!payload mod n_keys)
        ~value:(Kvstore.Value.make ~payload:!payload ~size_bytes:8)
        ~k:(fun () ->
          incr issued;
          Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 2) (writer dc))
    end
  in
  for dc = 0 to n_dcs - 1 do
    Saturn.System.attach system ~client:dc ~home:dc_sites.(dc) ~dc ~k:(writer dc)
  done;

  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 500) (fun () ->
      say "switching to the two-serializer chain (graceful epoch change)...";
      Saturn.System.switch_config system chain ~graceful:true);
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 900) (fun () ->
      say "switch complete? %b" (Saturn.System.switch_complete system));
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_sec 1.5) (fun () ->
      say "crashing the metadata service; proxies fall back to timestamp order";
      Saturn.System.enter_fallback system);

  Sim.Engine.run ~until:(Sim.Time.of_sec 6.) engine;
  Saturn.System.stop system;
  Sim.Engine.run engine;

  say "writers issued %d updates across the switch and the outage" !issued;
  (* verify convergence *)
  let diverged = ref 0 in
  for key = 0 to n_keys - 1 do
    let versions =
      List.filter_map
        (fun dc ->
          let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key in
          Option.map (fun ((v : Kvstore.Value.t), _) -> v.Kvstore.Value.payload)
            (Kvstore.Store.get store ~key))
        (List.init n_dcs Fun.id)
    in
    match versions with
    | [] -> ()
    | first :: rest -> if not (List.for_all (fun v -> v = first) rest) then incr diverged
  done;
  say "diverged keys after quiescence: %d (expected 0)" !diverged
