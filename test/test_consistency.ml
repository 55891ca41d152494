(* Randomized whole-system consistency checking.

   An oracle tracks, for every update, the set of updates in its causal
   past (what the issuing client had observed, transitively). Whenever an
   update becomes visible at a datacenter, every dependency stored at that
   datacenter must already be visible there — the definition of causal
   consistency the paper targets. At quiescence, all replicas of every key
   must agree (convergence). The same harness runs against Saturn (tree and
   peer modes), GentleRain and Cure; the eventually consistent baseline is
   checked for convergence only, since it makes no causal promise. *)

module IntSet = Set.Make (Int)

(* set by fault-injecting builders; invoked mid-run when [crash_replicas] *)
let crash_hook : (int -> unit) option ref = ref None

type oracle = {
  mutable deps : IntSet.t array; (* payload id -> causal past (payload ids) *)
  key_of : (int, int) Hashtbl.t;
  visible : (int * int, unit) Hashtbl.t; (* (dc, payload) *)
  mutable violations : string list;
  mutable checked : int;
}

let oracle_create () =
  { deps = Array.make 4096 IntSet.empty; key_of = Hashtbl.create 256; visible = Hashtbl.create 1024;
    violations = []; checked = 0 }

let record_visible o rmap ~dc ~payload =
  (match Hashtbl.find_opt o.key_of payload with
  | None -> ()
  | Some _ ->
    IntSet.iter
      (fun d ->
        match Hashtbl.find_opt o.key_of d with
        | Some dkey when Kvstore.Replica_map.replicates rmap ~dc ~key:dkey ->
          o.checked <- o.checked + 1;
          if not (Hashtbl.mem o.visible (dc, d)) then
            o.violations <-
              Printf.sprintf "update %d visible at dc%d before its dependency %d (key %d)" payload
                dc d dkey
              :: o.violations
        | Some _ | None -> ())
      o.deps.(payload));
  Hashtbl.replace o.visible (dc, payload) ()

type client_state = { client : Harness.Client.t; mutable observed : IntSet.t }

let run_system ?(full_replication = false) ?(crash_replicas = false) ~seed ~build ~check_causality () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let n_dcs = 3 + Sim.Rng.int rng 2 in
  let n_keys = 24 in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  (* random partial replication with degree >= 2 (or full for systems that
     are only sound under full replication) *)
  let rmap =
    if full_replication then Kvstore.Replica_map.full ~n_dcs ~n_keys
    else
      Kvstore.Replica_map.create ~n_dcs ~n_keys ~assign:(fun key ->
          let home = key mod n_dcs in
          let extra = (home + 1 + Sim.Rng.int rng (n_dcs - 1)) mod n_dcs in
          let maybe = if Sim.Rng.bool rng then [ Sim.Rng.int rng n_dcs ] else [] in
          home :: extra :: maybe)
  in
  let metrics = Harness.Metrics.create engine ~topo:Sim.Ec2.topology ~dc_sites in
  let spec = Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap in
  let api : Harness.Api.t = build engine spec metrics in
  let o = oracle_create () in
  Harness.Metrics.subscribe metrics (fun ~dc ~key:_ ~origin_dc:_ ~origin_time:_ ~value ->
      record_visible o rmap ~dc ~payload:value.Kvstore.Value.payload);
  let next_payload = ref 0 in
  let clients =
    List.init (2 * n_dcs) (fun i ->
        let dc = i mod n_dcs in
        { client = Harness.Client.create ~id:i ~home_site:dc_sites.(dc) ~preferred_dc:dc;
          observed = IntSet.empty })
  in
  let stop_at = Sim.Time.of_sec 4. in
  let running () = Sim.Time.compare (Sim.Engine.now engine) stop_at < 0 in
  let local_keys = Array.init n_dcs (fun dc -> Array.of_list (Kvstore.Replica_map.local_keys rmap ~dc)) in
  let rec loop cs () =
    if running () then begin
      let dc = cs.client.Harness.Client.current_dc in
      let dice = Sim.Rng.int rng 100 in
      if dice < 55 then begin
        (* local read: merge the version's causal past into ours *)
        let key = Sim.Rng.pick rng local_keys.(dc) in
        api.Harness.Api.read cs.client ~key ~k:(fun v ->
            (match v with
            | Some value ->
              let p = value.Kvstore.Value.payload in
              cs.observed <- IntSet.add p (IntSet.union o.deps.(p) cs.observed)
            | None -> ());
            loop cs ())
      end
      else if dice < 85 then begin
        let key = Sim.Rng.pick rng local_keys.(dc) in
        incr next_payload;
        let p = !next_payload in
        if p >= Array.length o.deps then begin
          let bigger = Array.make (2 * Array.length o.deps) IntSet.empty in
          Array.blit o.deps 0 bigger 0 (Array.length o.deps);
          o.deps <- bigger
        end;
        o.deps.(p) <- cs.observed;
        Hashtbl.replace o.key_of p key;
        let value = Kvstore.Value.make ~payload:p ~size_bytes:2 in
        api.Harness.Api.update cs.client ~key ~value ~k:(fun () ->
            (* visible at the origin once the write returns *)
            Hashtbl.replace o.visible (dc, p) ();
            cs.observed <- IntSet.add p cs.observed;
            loop cs ())
      end
      else begin
        (* roam to a random datacenter and come home *)
        let dest = Sim.Rng.int rng n_dcs in
        api.Harness.Api.migrate cs.client ~dest_dc:dest ~k:(fun () ->
            let key = Sim.Rng.pick rng local_keys.(dest) in
            api.Harness.Api.read cs.client ~key ~k:(fun v ->
                (match v with
                | Some value ->
                  let p = value.Kvstore.Value.payload in
                  cs.observed <- IntSet.add p (IntSet.union o.deps.(p) cs.observed)
                | None -> ());
                api.Harness.Api.migrate cs.client ~dest_dc:cs.client.Harness.Client.preferred_dc
                  ~k:(loop cs)))
      end
    end
  in
  List.iter (fun cs -> api.Harness.Api.attach cs.client ~dc:cs.client.Harness.Client.preferred_dc ~k:(loop cs)) clients;
  if crash_replicas then begin
    (* fault injection: crash one replica of every serializer mid-run; the
       chains heal and causality must hold throughout *)
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_sec 1.) (fun () ->
        match !crash_hook with Some f -> f 0 | None -> ());
    Sim.Engine.schedule engine ~delay:(Sim.Time.of_sec 2.) (fun () ->
        match !crash_hook with Some f -> f 1 | None -> ())
  end;
  Sim.Engine.run ~until:stop_at engine;
  (* quiescence: let replication drain with the system (heartbeats,
     stabilization rounds) still alive, then stop it *)
  Sim.Engine.run ~until:(Sim.Time.add stop_at (Sim.Time.of_sec 3.)) engine;
  api.Harness.Api.stop ();
  (* convergence: all replicas agree on the final version of every key *)
  let diverged = ref [] in
  for key = 0 to n_keys - 1 do
    let values =
      List.filter_map
        (fun dc ->
          if Kvstore.Replica_map.replicates rmap ~dc ~key then
            Option.map (fun (v : Kvstore.Value.t) -> v.Kvstore.Value.payload)
              (api.Harness.Api.store_value ~dc ~key)
          else None)
        (List.init n_dcs Fun.id)
    in
    match values with
    | [] -> ()
    | first :: rest ->
      if not (List.for_all (fun v -> v = first) rest) then
        diverged := Printf.sprintf "key %d: %s" key (String.concat "," (List.map string_of_int values)) :: !diverged
  done;
  if check_causality then begin
    (match o.violations with
    | [] -> ()
    | v :: _ -> Alcotest.failf "causality violated (%d checks): %s" o.checked v);
    if o.checked = 0 then Alcotest.fail "oracle never checked anything (broken test)"
  end;
  (match !diverged with [] -> () | d :: _ -> Alcotest.failf "replicas diverged: %s" d);
  if !next_payload < 50 then Alcotest.failf "too few updates issued (%d): broken driver" !next_payload

let saturn_replicated_build engine spec metrics =
  let api, system =
    Harness.Build.saturn engine { spec with Harness.Build.serializer_replicas = 3 } metrics
  in
  (crash_hook :=
     Some
       (fun replica ->
         match Saturn.System.service system with
         | Some service ->
           for s = 0 to Saturn.Tree.n_serializers (Saturn.Config.tree (Saturn.Service.config service)) - 1 do
             (try Saturn.Service.crash_replica service ~serializer:s ~replica
              with Invalid_argument _ -> ())
           done
         | None -> ()));
  api

let test_sys ?full_replication ?crash_replicas ~name ~build ~check_causality () =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "%s: randomized causal oracle (seed %d)" name seed)
        `Slow
        (fun () -> run_system ?full_replication ?crash_replicas ~seed ~build ~check_causality ()))
    [ 1; 2; 3 ]

let saturn_switching_build engine spec metrics =
  (* mid-run graceful tree switch: the oracle keeps checking causality
     across the epoch change *)
  let api, system = Harness.Build.saturn engine spec metrics in
  (crash_hook :=
     Some
       (fun phase ->
         if phase = 0 then begin
           let n_dcs = Saturn.System.n_dcs system in
           let dc_sites = (Saturn.System.params system).Saturn.System.geo.Saturn.Fabric.dc_sites in
           let alt =
             if n_dcs < 3 then
               Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs)
                 ~placement:[| dc_sites.(n_dcs - 1) |] ~dc_sites:(Array.copy dc_sites) ()
             else begin
               let tree =
                 Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ]
                   ~attach:(Array.init n_dcs (fun dc -> if dc < 2 then 0 else 1))
               in
               Saturn.Config.create ~tree ~placement:[| dc_sites.(0); dc_sites.(2) |]
                 ~dc_sites:(Array.copy dc_sites) ()
             end
           in
           Saturn.System.switch_config system alt ~graceful:true
         end));
  api

let suite =
  test_sys ~name:"saturn" ~build:(Harness.Build.make `Saturn) ~check_causality:true ()
  @ test_sys ~name:"saturn-peer" ~build:(Harness.Build.make `Saturn_peer) ~check_causality:true ()
  @ test_sys ~name:"gentlerain" ~build:(Harness.Build.make `Gentlerain) ~check_causality:true ()
  @ test_sys ~name:"cure" ~build:(Harness.Build.make `Cure) ~check_causality:true ()
  @ test_sys ~name:"eunomia" ~build:(Harness.Build.make `Eunomia) ~check_causality:true ()
  @ test_sys ~name:"okapi" ~build:(Harness.Build.make `Okapi) ~check_causality:true ()
  @ test_sys ~name:"orbe (full replication)" ~full_replication:true
      ~build:(Harness.Build.make `Orbe) ~check_causality:true ()
  @ test_sys ~name:"saturn + replica crashes" ~crash_replicas:true ~build:saturn_replicated_build
      ~check_causality:true ()
  @ test_sys ~name:"saturn + graceful tree switch" ~crash_replicas:true
      ~build:saturn_switching_build ~check_causality:true ()
  @ test_sys ~name:"eventual (convergence only)" ~build:(Harness.Build.make `Eventual)
      ~check_causality:false ()
