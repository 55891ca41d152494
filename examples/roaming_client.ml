(* Client migration under partial geo-replication (§4.4).

     dune exec examples/roaming_client.exe

   A client based in Ireland needs data only replicated in Sydney and
   Tokyo. The example contrasts the two ways to get there:
   - migration labels: a label minted at home races down the serializer
     tree and unlocks the attach as soon as the causal past is covered;
   - the conservative path: wait until, from every datacenter, an update
     (or promise) with a timestamp at least the client's has been applied.

   Read-your-writes is checked in both directions. *)

let () =
  let engine = Sim.Engine.create () in
  let n_dcs = 7 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let region dc = Sim.Topology.name Sim.Ec2.topology dc_sites.(dc) in
  (* keys 0..31 live in Europe (I, F); keys 32..63 in Asia-Pacific (T, S) *)
  let rmap =
    Kvstore.Replica_map.create ~n_dcs ~n_keys:64 ~assign:(fun key ->
        if key < 32 then [ Sim.Ec2.i; Sim.Ec2.f ] else [ Sim.Ec2.t; Sim.Ec2.s ])
  in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let config = Harness.Build.solve_config spec in
  let _, system =
    Harness.Build.saturn engine { spec with Harness.Build.saturn_config = Some config } metrics
  in
  (* client 1 lives in Ireland; each op names where it is attached *)
  let client = 1 and home = dc_sites.(Sim.Ec2.i) in
  let t0 () = Sim.Engine.now engine in
  let say fmt = Format.printf ("[%a] " ^^ fmt ^^ "@.") Sim.Time.pp (t0 ()) in
  Saturn.System.attach system ~client ~home ~dc:Sim.Ec2.i ~k:(fun () ->
      say "attached at %s (home)" (region Sim.Ec2.i);
      Saturn.System.update system ~client ~home ~dc:Sim.Ec2.i ~key:3
        ~value:(Kvstore.Value.make ~payload:100 ~size_bytes:8)
        ~k:(fun () ->
          say "wrote key 3 at home; causal past now includes it";
          let before = t0 () in
          (* migration label: minted at Ireland, targeted at Sydney *)
          Saturn.System.migrate system ~client ~home ~dc:Sim.Ec2.i ~preferred_dc:Sim.Ec2.i
            ~dest_dc:Sim.Ec2.s ~k:(fun () ->
              say "attached at %s after %a (migration label beat the conservative wait)"
                (region Sim.Ec2.s)
                Sim.Time.pp (Sim.Time.sub (t0 ()) before);
              Saturn.System.update system ~client ~home ~dc:Sim.Ec2.s ~key:40
                ~value:(Kvstore.Value.make ~payload:200 ~size_bytes:8)
                ~k:(fun () ->
                  say "wrote key 40 in Sydney (only replicated in AP)";
                  let back = t0 () in
                  (* the causal past was minted at Sydney now; going home
                     uses the conservative attach (Algorithm 1) *)
                  Saturn.System.migrate system ~client ~home ~dc:Sim.Ec2.s ~preferred_dc:Sim.Ec2.i
                    ~dest_dc:Sim.Ec2.i ~k:(fun () ->
                      say "back at %s after %a" (region Sim.Ec2.i)
                        Sim.Time.pp (Sim.Time.sub (t0 ()) back);
                      Saturn.System.read system ~client ~home ~dc:Sim.Ec2.i ~key:3 ~k:(function
                        | Some v ->
                          say "read-your-writes at home: key 3 payload %d" v.Kvstore.Value.payload
                        | None -> say "BUG: lost our own write!"))))));
  Sim.Engine.run ~until:(Sim.Time.of_sec 5.) engine;
  Saturn.System.stop system;
  Sim.Engine.run engine;
  Format.printf "@.note: no datacenter outside the replica sets ever received key 3 or key 40 —@.";
  Format.printf "genuine partial replication kept the metadata and data where it belongs.@."
