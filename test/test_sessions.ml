(* Client session guarantees.

   Causal consistency subsumes the four classic session guarantees; the
   paper's client library realizes them through the causal-past label. We
   check them on Saturn with randomized single-client histories that roam
   across datacenters:
   - read your writes: a read never returns a version the store orders
     below the client's latest own write of that key;
   - monotonic reads: successive reads of a key never go backwards in the
     version (label) order;
   - monotonic writes / writes follow reads: the labels the client's
     operations produce are strictly increasing (gears dominate the causal
     past), so last-writer-wins can never reorder them. *)

let run_session ~seed =
  let engine = Sim.Engine.create () in
  let n_dcs = 3 in
  let n_keys = 10 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap = Kvstore.Replica_map.full ~n_dcs ~n_keys in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let _, system =
    Harness.Build.saturn engine
      { spec with Harness.Build.saturn_config = Some (Harness.Build.solve_config spec) }
      metrics
  in
  let rng = Sim.Rng.create ~seed in
  (* the probed client: id 1, at home in dc 0, now attached at [!at] *)
  let home = dc_sites.(0) and at = ref 0 in
  (* background writers create interleaving traffic *)
  let stop_at = Sim.Time.of_sec 3. in
  let payload = ref 1000 in
  for dc = 0 to n_dcs - 1 do
    let rec loop () =
      if Sim.Time.compare (Sim.Engine.now engine) stop_at < 0 then begin
        incr payload;
        Saturn.System.update system ~client:(10 + dc) ~home:dc_sites.(dc) ~dc
            ~key:(!payload mod n_keys)
          ~value:(Kvstore.Value.make ~payload:!payload ~size_bytes:2)
          ~k:(fun () -> Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 7) loop)
      end
    in
    Saturn.System.attach system ~client:(10 + dc) ~home:dc_sites.(dc) ~dc ~k:loop
  done;
  (* the probed session *)
  let own_writes : (int, Saturn.Label.t) Hashtbl.t = Hashtbl.create 8 in
  let last_read : (int, Saturn.Label.t) Hashtbl.t = Hashtbl.create 8 in
  let last_op_label = ref None in
  let violations = ref [] in
  let ops_done = ref 0 in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let observe_write key l =
    Hashtbl.replace own_writes key l;
    (* monotonic writes: each op label strictly above the previous *)
    (match !last_op_label with
    | Some prev when Saturn.Label.compare l prev <= 0 ->
      note "write label not above the previous op label"
    | Some _ | None -> ());
    last_op_label := Some l
  in
  let check_read key = function
    | None -> () (* unwritten key *)
    | Some (_, label) ->
      (match Hashtbl.find_opt own_writes key with
      | Some mine when Saturn.Label.compare label mine < 0 ->
        note "read-your-writes violated at key %d" key
      | Some _ | None -> ());
      (match Hashtbl.find_opt last_read key with
      | Some prev when Saturn.Label.compare label prev < 0 ->
        note "monotonic reads violated at key %d" key
      | Some _ | None -> ());
      Hashtbl.replace last_read key label
  in
  let rec session () =
    if Sim.Time.compare (Sim.Engine.now engine) stop_at < 0 && !violations = [] then begin
      let dice = Sim.Rng.int rng 100 in
      if dice < 45 then begin
        let key = Sim.Rng.int rng n_keys in
        let dc = !at in
        let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key in
        Saturn.System.read system ~client:1 ~home ~dc ~key ~k:(fun _ ->
            (* read the version+label through the store at completion time *)
            check_read key (Kvstore.Store.get store ~key);
            incr ops_done;
            session ())
      end
      else if dice < 75 then begin
        incr payload;
        let key = Sim.Rng.int rng n_keys in
        Saturn.System.update_with_label system ~client:1 ~home ~dc:!at ~key
          ~value:(Kvstore.Value.make ~payload:!payload ~size_bytes:2)
          ~k:(fun label ->
            observe_write key label;
            incr ops_done;
            session ())
      end
      else begin
        let dest = Sim.Rng.int rng n_dcs in
        Saturn.System.migrate system ~client:1 ~home ~dc:!at ~preferred_dc:0 ~dest_dc:dest
            ~k:(fun () ->
            at := dest;
            incr ops_done;
            session ())
      end
    end
  in
  Saturn.System.attach system ~client:1 ~home ~dc:0 ~k:session;
  Sim.Engine.run ~until:stop_at engine;
  (match !violations with [] -> () | v :: _ -> Alcotest.fail v);
  if !ops_done < 20 then Alcotest.failf "session too short (%d ops)" !ops_done

let suite =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "session guarantees across migrations (seed %d)" seed)
        `Slow
        (fun () -> run_session ~seed))
    [ 11; 12; 13; 14 ]
