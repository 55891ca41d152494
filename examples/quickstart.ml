(* Quickstart: attach Saturn to a 3-datacenter geo-replicated store and
   watch a causally consistent update propagate.

     dune exec examples/quickstart.exe

   The deployment is simulated over the paper's EC2 latency matrix
   (N. Virginia, N. California, Oregon). A client in Virginia writes a
   key; Saturn's serializer tree delivers the label to the other
   datacenters in causal order, and the update becomes visible there at
   roughly the bulk-transfer latency. *)

let () =
  let engine = Sim.Engine.create () in
  let n_dcs = 3 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let region dc = Sim.Topology.name Sim.Ec2.topology dc_sites.(dc) in

  (* 1. describe what is replicated where: here, everything everywhere *)
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys:64 in

  (* 2. plan the metadata service: Algorithm 3 picks the serializer tree,
     placement and artificial delays that best match bulk latencies *)
  let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
  let problem =
    {
      Saturn.Config_solver.topo = Sim.Ec2.topology;
      dc_sites = Array.copy dc_sites;
      candidates = Saturn.Config_solver.default_candidates ~dc_sites;
      crit = Saturn.Mismatch.uniform ~n_dcs ~bulk;
    }
  in
  let config, mismatch = Saturn.Config_gen.find_configuration ~seed:1 problem in
  Format.printf "planned configuration: %a@." Saturn.Config.pp config;
  Format.printf "weighted mismatch from optimal visibility: %.1f ms@.@." mismatch;

  (* 3. build the system and subscribe to visibility events *)
  let params = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let hooks =
    {
      Saturn.Fabric.on_visible =
        (fun ~dc ~key ~origin_dc ~origin_time ~value ->
          Format.printf "[%a] key %d (payload %d) from %s became visible at %s (+%a)@."
            Sim.Time.pp (Sim.Engine.now engine) key value.Kvstore.Value.payload
            (region origin_dc) (region dc)
            Sim.Time.pp (Sim.Time.sub (Sim.Engine.now engine) origin_time));
    }
  in
  let system = Saturn.System.create ~observer:(Stats.Observer.create ()) engine params hooks in

  (* 4. a client in Virginia writes; a client in Oregon polls until it
     observes the write, then writes a causally dependent key. A client is
     an id and a home site; the system keeps its causal past, and each op
     names the datacenter the client is attached to *)
  let alice = 1 and bob = 2 in
  Saturn.System.attach system ~client:alice ~home:dc_sites.(0) ~dc:0 ~k:(fun () ->
      Format.printf "[%a] alice writes key 7 at %s@." Sim.Time.pp (Sim.Engine.now engine) (region 0);
      Saturn.System.update system ~client:alice ~home:dc_sites.(0) ~dc:0 ~key:7
        ~value:(Kvstore.Value.make ~payload:1 ~size_bytes:64)
        ~k:(fun () -> ()));
  let rec poll () =
    Saturn.System.read system ~client:bob ~home:dc_sites.(2) ~dc:2 ~key:7 ~k:(function
      | Some v ->
        Format.printf "[%a] bob reads key 7 at %s: payload %d — writing dependent key 8@."
          Sim.Time.pp (Sim.Engine.now engine) (region 2) v.Kvstore.Value.payload;
        Saturn.System.update system ~client:bob ~home:dc_sites.(2) ~dc:2 ~key:8
          ~value:(Kvstore.Value.make ~payload:2 ~size_bytes:64)
          ~k:(fun () -> ())
      | None -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 10) poll)
  in
  Saturn.System.attach system ~client:bob ~home:dc_sites.(2) ~dc:2 ~k:poll;

  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) engine;
  Saturn.System.stop system;
  Sim.Engine.run engine;
  Format.printf "@.done: key 8 is everywhere visible only after key 7 — causal order held.@."
