(* Bechamel micro-benchmarks of Saturn's hot paths: label comparison (the
   per-operation metadata cost the paper argues is negligible), Cure-style
   vector merges (the cost it avoids), tree routing, sink stabilization and
   the event-queue heap. *)

open Bechamel
open Toolkit

let label_a = Saturn.Label.update ~ts:(Sim.Time.of_us 1234) ~src_dc:1 ~src_gear:0 ~key:42
let label_b = Saturn.Label.update ~ts:(Sim.Time.of_us 1235) ~src_dc:2 ~src_gear:1 ~key:43

let test_label_compare =
  Test.make ~name:"label compare (Saturn per-op metadata)"
    (Staged.stage (fun () -> ignore (Saturn.Label.compare label_a label_b)))

let vec_a = Array.init 7 (fun i -> i * 17)
let vec_b = Array.init 7 (fun i -> i * 13)

let test_vector_merge =
  Test.make ~name:"vector merge, 7 entries (Cure per-op metadata)"
    (Staged.stage (fun () ->
         let out = Array.copy vec_a in
         Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) vec_b;
         ignore (Sys.opaque_identity out)))

let routing_tree =
  Saturn.Tree.create ~n_serializers:6
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
    ~attach:[| 0; 1; 2; 3; 4; 5; 5 |]

let test_tree_routing =
  Test.make ~name:"tree routing decision (dcs_behind lookup)"
    (Staged.stage (fun () -> ignore (Saturn.Tree.dcs_behind routing_tree ~from:2 ~via:3)))

let test_heap =
  Test.make ~name:"event-queue heap push+pop"
    (Staged.stage
       (let heap = Sim.Heap.create ~cmp:Int.compare () in
        let i = ref 0 in
        fun () ->
          incr i;
          Sim.Heap.push heap (!i * 7919 mod 1000);
          if Sim.Heap.size heap > 64 then ignore (Sim.Heap.pop_exn heap)))

let test_sink =
  Test.make ~name:"label sink offer+flush"
    (Staged.stage
       (let engine = Sim.Engine.create () in
        let clock = Sim.Clock.create engine in
        let gears = [| Saturn.Gear.create clock ~dc:0 ~gear_id:0 |] in
        let sink =
          Saturn.Sink.create engine ~gears ~period:(Sim.Time.of_ms 1) ~emit:(fun _ -> ())
            ~observer:(Stats.Observer.create ()) ()
        in
        let i = ref 0 in
        fun () ->
          incr i;
          let ts = Saturn.Gear.generate_ts gears.(0) ~client_ts:Sim.Time.zero in
          Saturn.Sink.offer sink (Saturn.Label.update ~ts ~src_dc:0 ~src_gear:0 ~key:!i);
          Saturn.Sink.flush sink))

let tests = [ test_label_compare; test_vector_merge; test_tree_routing; test_heap; test_sink ]

let run () =
  Util.section "Microbenchmarks (Bechamel): Saturn hot paths";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let table = Stats.Table.create ~title:"nanoseconds per call (OLS fit)" ~columns:[ "benchmark"; "ns/run" ] in
  List.iter
    (fun test ->
      List.iter
        (fun (name, raw) ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> Printf.sprintf "%.1f" v
            | Some _ | None -> "-"
          in
          Stats.Table.add_row table [ name; ns ])
        (List.map (fun (k, v) -> (k, v)) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Benchmark.all cfg [ instance ] test) [])))
    tests;
  Stats.Table.print table
