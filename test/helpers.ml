(* Shared helpers for the test suites. *)

let time = Alcotest.testable Sim.Time.pp Sim.Time.equal

let label = Alcotest.testable Saturn.Label.pp Saturn.Label.equal

(* A 3-datacenter star deployment over the first EC2 regions with full
   replication: the workhorse fixture for integration tests. *)
let star_system ?(n_dcs = 3) ?(n_keys = 64) ?(partitions = 2) ?(peer_mode = false)
    ?(serializer_replicas = 1) ?rmap ?hooks () =
  let engine = Sim.Engine.create () in
  let dc_sites = Array.of_list (Sim.Ec2.first_n n_dcs) in
  let rmap =
    match rmap with
    | Some rm -> rm
    | None -> Kvstore.Replica_map.full ~n_dcs ~n_keys
  in
  let tree = Saturn.Tree.star ~n_dcs in
  let config =
    Saturn.Config.create ~tree ~placement:[| dc_sites.(0) |] ~dc_sites:(Array.copy dc_sites) ()
  in
  let p = Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites ~rmap ~config in
  let params =
    { p with geo = { p.geo with partitions }; peer_mode; serializer_replicas }
  in
  let hooks = match hooks with Some h -> h | None -> Saturn.Fabric.no_hooks in
  let system = Saturn.System.create ~observer:(Stats.Observer.create ()) engine params hooks in
  (engine, system)

(* the store of [key]'s partition at [dc] *)
let store_of_key system ~dc ~key =
  let fabric = Saturn.System.fabric system in
  Saturn.Fabric.store fabric ~dc ~part:(Saturn.Fabric.partition fabric ~key)

(* the home site of a client of datacenter [dc]: [Saturn.System]'s client
   ops take it beside the client's id *)
let home dc = List.nth (Sim.Ec2.first_n 7) dc

(* Run the engine until the continuation result materialises. *)
let run_until_some engine result =
  Sim.Engine.run ~until:(Sim.Time.of_sec 30.) engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "operation did not complete within simulated 30s"

(* A proxy at datacenter 0 whose staging completes on the spot. *)
let instant_proxy ?mode engine ~n_dcs ~install_update =
  let rec proxy =
    lazy
      (Saturn.Proxy.create engine ~observer:(Stats.Observer.create ()) ~dc:0 ~n_dcs
         ~stage_update:(fun p -> Saturn.Proxy.staged (Lazy.force proxy) p)
         ~install_update ?mode ())
  in
  Lazy.force proxy

(* words allocated by [f ()], minor and direct-to-major (see test_stats) *)
let allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let value ?(size = 8) payload = Kvstore.Value.make ~payload ~size_bytes:size

(* 64-bit FNV-1a over the bytes [Probe.write_jsonl] writes, read back in
   fixed-size blocks so a long trace never sits in memory as one string:
   what [Probe.digest] must equal *)
let fnv_of_jsonl probe =
  let path = Filename.temp_file "probe" ".jsonl" in
  let oc = open_out_bin path in
  Sim.Probe.write_jsonl probe oc;
  close_out oc;
  let ic = open_in_bin path in
  let buf = Bytes.create 65536 in
  let h = ref 0xcbf29ce484222325L in
  let rec loop () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      for i = 0 to n - 1 do
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get buf i)))) 0x100000001b3L
      done;
      loop ()
    end
  in
  loop ();
  close_in ic;
  Sys.remove path;
  Printf.sprintf "%016Lx" !h

(* A wire's channel carrying closures, as the baselines' bulk channels do:
   each message is run on delivery. *)
let closure_chan wire = Sim.Link.chan wire (fun deliver -> deliver ())
