(* Unit and property tests for the simulator substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Time ---------------------------------------------------------------- *)

let test_time_units () =
  Alcotest.(check int) "ms" 5_000 (Sim.Time.to_us (Sim.Time.of_ms 5));
  Alcotest.(check int) "sec" 1_500_000 (Sim.Time.to_us (Sim.Time.of_sec 1.5));
  Alcotest.(check (float 1e-9)) "to ms" 2.5 (Sim.Time.to_ms_float (Sim.Time.of_us 2_500));
  Alcotest.(check int) "add" 7 (Sim.Time.add 3 4);
  Alcotest.(check int) "sub" 1 (Sim.Time.sub 5 4);
  Alcotest.(check string) "pp us" "12us" (Sim.Time.to_string (Sim.Time.of_us 12));
  Alcotest.(check string) "pp ms" "1.500ms" (Sim.Time.to_string (Sim.Time.of_us 1_500));
  Alcotest.(check string) "pp s" "2.000s" (Sim.Time.to_string (Sim.Time.of_sec 2.))

(* ---- Keyed heap ----------------------------------------------------------- *)

let test_keyed_heap_basic () =
  let h = Sim.Heap.Keyed.create ~dummy:"" () in
  Alcotest.(check bool) "empty" true (Sim.Heap.Keyed.is_empty h);
  List.iter
    (fun (k1, k2, x) -> Sim.Heap.Keyed.push h ~k1 ~k2 x)
    [ (5, 0, "e"); (1, 1, "b"); (1, 0, "a"); (3, 0, "c"); (3, 0, "d") ];
  Alcotest.(check int) "size" 5 (Sim.Heap.Keyed.size h);
  Alcotest.(check int) "min_k1" 1 (Sim.Heap.Keyed.min_k1 h);
  Alcotest.(check (option string)) "peek" (Some "a") (Sim.Heap.Keyed.peek h);
  Alcotest.(check string) "pop a" "a" (Sim.Heap.Keyed.pop_exn h);
  Alcotest.(check int) "popped k1" 1 (Sim.Heap.Keyed.popped_k1 h);
  Alcotest.(check int) "popped k2" 0 (Sim.Heap.Keyed.popped_k2 h);
  Alcotest.(check string) "pop b" "b" (Sim.Heap.Keyed.pop_exn h);
  Sim.Heap.Keyed.clear h;
  Alcotest.(check (option string)) "cleared" None (Sim.Heap.Keyed.pop h)

let prop_keyed_heap_sorts =
  QCheck.Test.make ~name:"keyed heap drains in (k1, k2) order" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun ks ->
      let h = Sim.Heap.Keyed.create ~dummy:(-1, -1) () in
      List.iter (fun (k1, k2) -> Sim.Heap.Keyed.push h ~k1 ~k2 (k1, k2)) ks;
      let rec drain acc =
        match Sim.Heap.Keyed.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare ks)

(* Interleaved push/pop/clear against a sorted-list model. Keys are drawn
   from a small range so ties are common; the heap may break a (k1, k2)
   tie either way, so a pop must return *some* modelled entry with the
   minimum keys — its own payload, never another slot's. Capacity starts
   at 1 and doubles only when the size would exceed it, so it must end
   at the smallest power of two covering the peak size: a slot leaked by
   pop or clear would force an extra doubling. *)
type heap_op = Push of int * int | Pop | Clear

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun a b -> Push (a, b)) (int_bound 8) (int_bound 3));
        (4, return Pop);
        (1, return Clear) ])

let heap_op_print = function
  | Push (a, b) -> Printf.sprintf "Push(%d,%d)" a b
  | Pop -> "Pop"
  | Clear -> "Clear"

let prop_keyed_heap_model =
  QCheck.Test.make ~name:"keyed heap matches a sorted-list model under push/pop/clear" ~count:300
    (QCheck.make ~print:QCheck.Print.(list heap_op_print) QCheck.Gen.(list_size (int_bound 120) heap_op_gen))
    (fun ops ->
      let module K = Sim.Heap.Keyed in
      let h = K.create ~capacity:1 ~dummy:(-1, -1, -1) () in
      let model = ref [] (* (k1, k2, id), sorted by keys *) in
      let peak = ref 0 in
      let next_id = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Push (k1, k2) ->
            let id = !next_id in
            incr next_id;
            K.push h ~k1 ~k2 (k1, k2, id);
            model := List.merge compare !model [ (k1, k2, id) ];
            peak := max !peak (List.length !model)
          | Pop -> (
            match (K.pop h, !model) with
            | None, [] -> ()
            | Some ((k1, k2, _) as x), (m1, m2, _) :: _ ->
              expect (k1 = m1 && k2 = m2);
              expect (K.popped_k1 h = k1 && K.popped_k2 h = k2);
              expect (List.mem x !model);
              model := List.filter (( <> ) x) !model
            | Some _, [] | None, _ :: _ -> expect false)
          | Clear ->
            K.clear h;
            model := []);
          expect (K.size h = List.length !model);
          expect (K.is_empty h = (!model = []));
          match (K.peek h, !model) with
          | None, [] -> ()
          | Some (k1, k2, _), (m1, m2, _) :: _ -> expect (k1 = m1 && k2 = m2)
          | Some _, [] | None, _ :: _ -> expect false)
        ops;
      let rec pow2 c = if c >= !peak then c else pow2 (2 * c) in
      expect (Sim.Heap.Keyed.capacity h = pow2 1);
      !ok)

(* DESIGN.md's flattened-event-path table promises the event queue costs
   no allocation per event: after warm-up, push/pop pairs and engine steps
   allocate no minor words at all. *)
let test_event_path_allocates_nothing () =
  let n = 100_000 in
  let module K = Sim.Heap.Keyed in
  let h = K.create ~dummy:"" () in
  let payload = "x" in
  for i = 0 to 999 do
    K.push h ~k1:(i * 7 mod 1000) ~k2:i payload
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (K.pop_exn h);
    K.push h ~k1:(K.popped_k1 h + (i mod 500)) ~k2:(1000 + i) payload
  done;
  let heap_words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "Heap.Keyed push/pop pairs" 0. heap_words;
  let e = Sim.Engine.create () in
  let rec tick () = Sim.Engine.schedule e ~delay:(Sim.Time.of_us 5) tick in
  for i = 1 to 1000 do
    Sim.Engine.schedule e ~delay:(Sim.Time.of_us i) tick
  done;
  for _ = 1 to 1000 do
    ignore (Sim.Engine.step e)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sim.Engine.step e)
  done;
  let step_words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "Engine.step" 0. step_words;
  Alcotest.(check int) "queue stayed full" 1000 (Sim.Engine.pending e)

(* ---- Seq_ring ------------------------------------------------------------ *)

(* Seq_ring against an association-list model: seqs drift upward as a
   chain's or a receiver's do, with some below the lowest held and some
   far above, so the window re-lays in both directions. *)
type seq_op = Set of int * int | Remove of int | Drop_below of int

let seq_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun s v -> Set (s, v)) (int_range (-20) 300) (int_bound 1000));
        (3, map (fun s -> Remove s) (int_range (-20) 300));
        (1, map (fun s -> Drop_below s) (int_range (-20) 300)) ])

let seq_op_print = function
  | Set (s, v) -> Printf.sprintf "Set(%d,%d)" s v
  | Remove s -> Printf.sprintf "Remove %d" s
  | Drop_below s -> Printf.sprintf "Drop_below %d" s

let prop_seq_ring_model =
  QCheck.Test.make ~name:"seq ring matches a map model under set/remove/drop_below" ~count:300
    (QCheck.make ~print:QCheck.Print.(list seq_op_print) QCheck.Gen.(list_size (int_bound 150) seq_op_gen))
    (fun ops ->
      let r = Sim.Seq_ring.create () in
      let model = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Set (s, v) ->
            Sim.Seq_ring.set r s v;
            model := (s, v) :: List.remove_assoc s !model
          | Remove s ->
            Sim.Seq_ring.remove r s;
            model := List.remove_assoc s !model
          | Drop_below s ->
            Sim.Seq_ring.drop_below r s;
            model := List.filter (fun (s', _) -> s' >= s) !model);
          for s = -25 to 305 do
            match List.assoc_opt s !model with
            | Some v -> expect (Sim.Seq_ring.mem r s && Sim.Seq_ring.get r s = v)
            | None ->
              expect (not (Sim.Seq_ring.mem r s));
              expect (match Sim.Seq_ring.get r s with _ -> false | exception Not_found -> true)
          done;
          let seen = ref [] in
          Sim.Seq_ring.iter (fun s v -> seen := (s, v) :: !seen) r;
          expect (List.rev !seen = List.sort compare !model))
        ops;
      !ok)

(* ---- Flat_table ---------------------------------------------------------- *)

(* Flat_table against an association-list model, at the chain's two key
   fields and the probe's seven: small keys collide and form long probe
   runs, so removal's backward shift and growth's re-insertion both run. *)
type flat_op = Bind of int * int * int | Unbind of int * int

let flat_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map3 (fun a b v -> Bind (a, b, v)) (int_bound 5) (int_bound 40) (int_bound 1000));
        (2, map2 (fun a b -> Unbind (a, b)) (int_bound 5) (int_bound 40)) ])

let flat_op_print = function
  | Bind (a, b, v) -> Printf.sprintf "Bind(%d,%d,%d)" a b v
  | Unbind (a, b) -> Printf.sprintf "Unbind(%d,%d)" a b

let prop_flat_table_model =
  QCheck.Test.make ~name:"flat table matches a map model at two and seven fields" ~count:200
    (QCheck.make ~print:QCheck.Print.(list flat_op_print) QCheck.Gen.(list_size (int_bound 300) flat_op_gen))
    (fun ops ->
      List.for_all
        (fun fields ->
          let t = Sim.Flat_table.create ~fields in
          (* at seven fields the key's later fields are a function of its first two *)
          let extra a b = if fields = 7 then (a + b, a * b, 1, 2, a) else (0, 0, 0, 0, 0) in
          let find a b =
            let k2, k3, k4, k5, k6 = extra a b in
            Sim.Flat_table.find t a b k2 k3 k4 k5 k6
          in
          let model = ref [] in
          let ok = ref true in
          List.iter
            (fun op ->
              match op with
              | Bind (a, b, v) ->
                let k2, k3, k4, k5, k6 = extra a b in
                Sim.Flat_table.set t (find a b) a b k2 k3 k4 k5 k6 v;
                model := ((a, b), v) :: List.remove_assoc (a, b) !model
              | Unbind (a, b) ->
                let i = find a b in
                if Sim.Flat_table.found t i then Sim.Flat_table.remove t i;
                model := List.remove_assoc (a, b) !model)
            ops;
          for a = 0 to 5 do
            for b = 0 to 40 do
              let i = find a b in
              match List.assoc_opt (a, b) !model with
              | Some v -> if not (Sim.Flat_table.found t i && Sim.Flat_table.value t i = v) then ok := false
              | None -> if Sim.Flat_table.found t i then ok := false
            done
          done;
          !ok && Sim.Flat_table.length t = List.length !model)
        [ 2; 7 ])

(* ---- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:99 and b = Sim.Rng.create ~seed:99 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of range: %d" x;
    let f = Sim.Rng.float rng 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float out of range: %f" f
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int rng 0))

(* golden draws at seed 42, captured before the state moved into unboxed
   bytes: any rewrite of the generator must replay them exactly. List.init
   applies its function left to right, so a list is a draw sequence. *)
let test_rng_golden () =
  let ints r n = List.init n (fun _ -> Sim.Rng.int r 1000) in
  let r = Sim.Rng.create ~seed:42 in
  Alcotest.(check (list int)) "int stream" [ 706; 145; 929 ] (ints r 3);
  Alcotest.(check (float 0.)) "then float" 0x1.607387fc392b8p-2 (Sim.Rng.float r 1.0);
  let r = Sim.Rng.create ~seed:42 in
  Alcotest.(check (float 0.)) "float first" 0x1.7bae644c5fd6dp-1 (Sim.Rng.float r 1.0);
  Alcotest.(check (list int)) "ints after the float" [ 145; 929; 882 ] (ints r 3);
  let r = Sim.Rng.create ~seed:42 in
  let s = Sim.Rng.split r in
  Alcotest.(check (list int)) "split stream" [ 834; 658; 401 ] (ints s 3);
  Alcotest.(check (list int)) "parent after split" [ 145; 929 ] (ints r 2);
  let r = Sim.Rng.create ~seed:42 in
  let bits = List.init 8 (fun _ -> if Sim.Rng.bool r then '1' else '0') in
  Alcotest.(check string) "bool stream" "11000010" (String.of_seq (List.to_seq bits));
  let r = Sim.Rng.create ~seed:42 and r' = Sim.Rng.create ~seed:42 in
  for i = 0 to 99 do
    let p = float_of_int i /. 100. in
    Alcotest.(check bool) "chance p = float 1.0 < p" (Sim.Rng.float r' 1.0 < p) (Sim.Rng.chance r p)
  done

(* the state is unboxed, so integer and boolean draws allocate nothing and
   a float draw at most its boxed result *)
let test_rng_draws_allocate_nothing () =
  let n = 100_000 in
  let r = Sim.Rng.create ~seed:7 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    acc := !acc + Sim.Rng.int r (1 + (i land 1023))
  done;
  Alcotest.(check (float 0.)) "Rng.int" 0. (Gc.minor_words () -. before);
  let before = Gc.minor_words () in
  for _ = 1 to n do
    if Sim.Rng.chance r 0.3 then incr acc;
    if Sim.Rng.bool r then incr acc
  done;
  Alcotest.(check (float 0.)) "Rng.chance and Rng.bool" 0. (Gc.minor_words () -. before);
  let sum = ref 0. in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float r 1.0
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int n in
  if per_draw > 2. then Alcotest.failf "Rng.float: %.2f words per draw, expected at most 2" per_draw

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Sim.Rng.shuffle (Sim.Rng.create ~seed) arr;
      List.sort Int.compare (Array.to_list arr) = List.sort Int.compare xs)

let test_rng_exponential_positive () =
  let rng = Sim.Rng.create ~seed:3 in
  let sum = ref 0. in
  for _ = 1 to 1000 do
    let x = Sim.Rng.exponential rng ~mean:10. in
    if x < 0. then Alcotest.fail "negative exponential sample";
    sum := !sum +. x
  done;
  let mean = !sum /. 1000. in
  if mean < 8. || mean > 12. then Alcotest.failf "exponential mean off: %f" mean

(* ---- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 5) (fun () -> log := 2 :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 9) (fun () -> log := 3 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "now at last event" 9_000 (Sim.Engine.now e)

let test_engine_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo at equal timestamps" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () -> fired := true);
  Sim.Engine.run ~until:(Sim.Time.of_ms 5) e;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock advanced to horizon" 5_000 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check bool) "eventually fires" true !fired

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () ->
      Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> incr hits));
  Sim.Engine.run e;
  Alcotest.(check int) "nested event ran" 1 !hits;
  Alcotest.(check int) "two events processed" 2 (Sim.Engine.events_processed e)

let test_engine_periodic_stop () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.periodic e ~every:(Sim.Time.of_ms 2) (fun () -> incr n) ~stop:(fun () -> !n >= 3);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !n

let test_engine_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let fired_at = ref (-1) in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () ->
      Sim.Engine.schedule_at e Sim.Time.zero (fun () -> fired_at := Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "past-due event runs now" 2_000 !fired_at

(* ---- Clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let e = Sim.Engine.create () in
  let c = Sim.Clock.create e in
  let a = Sim.Clock.read c in
  let b = Sim.Clock.read c in
  if Sim.Time.compare b a <= 0 then Alcotest.fail "clock reads must strictly increase"

let test_clock_offset_drift () =
  let e = Sim.Engine.create () in
  let c = Sim.Clock.create ~offset:(Sim.Time.of_ms 3) ~drift_ppm:1000. e in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_sec 1.) (fun () ->
      (* 1s elapsed, +3ms offset, +1ms drift (1000 ppm of 1s) *)
      let v = Sim.Clock.peek c in
      Alcotest.(check int) "offset+drift" 1_004_000 (Sim.Time.to_us v));
  Sim.Engine.run e

(* ---- Link ---------------------------------------------------------------- *)

let test_link_latency () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 10) () in
  let arrival = ref (-1) in
  Sim.Link.send (Helpers.closure_chan l) ~size_bytes:0 (fun () -> arrival := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "latency applied" 10_000 !arrival

let test_link_bandwidth () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create ~bandwidth_bytes_per_us:1. e ~latency:(Sim.Time.of_ms 1) () in
  let arrival = ref (-1) in
  Sim.Link.send (Helpers.closure_chan l) ~size_bytes:500 (fun () -> arrival := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "latency + transmission" 1_500 !arrival

let test_link_cut_drops () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 10) () in
  let c = Helpers.closure_chan l in
  let delivered = ref 0 in
  Sim.Link.send c ~size_bytes:0 (fun () -> incr delivered);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 5) (fun () -> Sim.Link.cut l);
  (* in-flight message is lost; messages sent while down are lost too *)
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 6) (fun () -> Sim.Link.send c ~size_bytes:0 (fun () -> incr delivered));
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 7) (fun () -> Sim.Link.restore l);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 8) (fun () -> Sim.Link.send c ~size_bytes:0 (fun () -> incr delivered));
  Sim.Engine.run e;
  Alcotest.(check int) "only post-restore delivery" 1 !delivered;
  Alcotest.(check int) "drops counted" 2 (Sim.Link.dropped_count l)

let prop_link_fifo_under_jitter =
  QCheck.Test.make ~name:"link preserves FIFO under jitter" ~count:50
    QCheck.(pair small_int (int_bound 50))
    (fun (seed, n) ->
      let n = n + 2 in
      let e = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let l = Sim.Link.create ~jitter_us:5_000 ~rng e ~latency:(Sim.Time.of_ms 2) () in
      let received = ref [] in
      let c = Sim.Link.chan l (fun i -> received := i :: !received) in
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 100)) (fun () -> Sim.Link.send c ~size_bytes:0 i)
      done;
      Sim.Engine.run e;
      List.rev !received = List.init n (fun i -> i + 1))

(* The typed channel against the closure-batch link it replaced
   (test/link_reference.ml). A random script of sends (some at the same
   instant), cuts, restores and latency changes drives both over jitter
   and bandwidth, each on its own engine under its own probe. Some
   messages make their handler send back at once, cut the link mid-batch
   or restore it; at zero latency without jitter, a send-back of size 0
   arrives at the very instant its batch is firing. Both must deliver the same messages at
   the same times, keep the same counters, and process the same engine
   events, which the probe digests (engine steps carry their sequence
   numbers) pin down. *)
type link_action = Send of int | Cut | Restore | Set_latency of int

let link_script_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (pair (int_bound 40)
         (frequency
            [ (8, map (fun size -> Send size) (int_bound 600)); (1, return Cut);
              (1, return Restore); (2, map (fun ms -> Set_latency ms) (int_range 0 4)) ])))

let link_script_print (at, a) =
  match a with
  | Send size -> Printf.sprintf "%d:send %d" at size
  | Cut -> Printf.sprintf "%d:cut" at
  | Restore -> Printf.sprintf "%d:restore" at
  | Set_latency ms -> Printf.sprintf "%d:latency %d ms" at ms

(* what a delivered message [id] makes its handler do *)
let link_reaction id = if id mod 11 = 5 then `Cut else if id mod 13 = 7 then `Restore
  else if id mod 5 = 2 && id < 1000 then `Echo else `Nothing

let run_link_script ~seed ~jitter_us script ~make =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let probe = Sim.Probe.create () in
  let log = ref [] in
  let counters =
    Sim.Probe.with_probe probe (fun () ->
        let send, cut, restore, set_latency, counters =
          make e ~rng ~jitter_us ~on_deliver:(fun id -> log := (id, Sim.Engine.now e) :: !log)
        in
        let next_id = ref 0 in
        List.iter
          (fun (at, action) ->
            Sim.Engine.schedule_at e (Sim.Time.of_ms (at / 4) + (at mod 4)) (fun () ->
                match action with
                | Send size ->
                  incr next_id;
                  send ~size !next_id
                | Cut -> cut ()
                | Restore -> restore ()
                | Set_latency ms -> set_latency (Sim.Time.of_ms ms)))
          script;
        Sim.Engine.run e;
        counters ())
  in
  (List.rev !log, counters, Sim.Engine.events_processed e, Sim.Probe.digest probe)

let reference_link e ~rng ~jitter_us ~on_deliver =
  let l =
    Link_reference.create ~jitter_us ~bandwidth_bytes_per_us:2. ~rng e
      ~latency:(Sim.Time.of_ms 3) ()
  in
  let rec send ~size id =
    Link_reference.send l ~size_bytes:size (fun () ->
        on_deliver id;
        match link_reaction id with
        | `Cut -> Link_reference.cut l
        | `Restore -> Link_reference.restore l
        | `Echo -> send ~size:0 (id + 1000)
        | `Nothing -> ())
  in
  let counters () =
    [ Link_reference.delivered_count l; Link_reference.dropped_count l;
      Link_reference.dropped_down_count l; Link_reference.dropped_cut_count l;
      Link_reference.in_flight_count l ]
  in
  ( send,
    (fun () -> Link_reference.cut l),
    (fun () -> Link_reference.restore l),
    Link_reference.set_latency l,
    counters )

let typed_link e ~rng ~jitter_us ~on_deliver =
  let l = Sim.Link.create ~jitter_us ~bandwidth_bytes_per_us:2. ~rng e ~latency:(Sim.Time.of_ms 3) () in
  let chan = ref None in
  let send ~size id = match !chan with Some c -> Sim.Link.send c ~size_bytes:size id | None -> () in
  chan :=
    Some
      (Sim.Link.chan l (fun id ->
           on_deliver id;
           match link_reaction id with
           | `Cut -> Sim.Link.cut l
           | `Restore -> Sim.Link.restore l
           | `Echo -> send ~size:0 (id + 1000)
           | `Nothing -> ()));
  let counters () =
    [ Sim.Link.delivered_count l; Sim.Link.dropped_count l; Sim.Link.dropped_down_count l;
      Sim.Link.dropped_cut_count l; Sim.Link.in_flight_count l ]
  in
  (send, (fun () -> Sim.Link.cut l), (fun () -> Sim.Link.restore l), Sim.Link.set_latency l, counters)

let prop_link_matches_reference =
  QCheck.Test.make ~name:"typed link channel matches the closure-batch reference" ~count:300
    QCheck.(
      triple small_int (make ~print:Print.(list link_script_print) link_script_gen) bool)
    (fun (seed, script, jitter) ->
      let jitter_us = if jitter then 2_000 else 0 in
      let log, counters, events, digest =
        run_link_script ~seed ~jitter_us script ~make:reference_link
      in
      let log', counters', events', digest' =
        run_link_script ~seed ~jitter_us script ~make:typed_link
      in
      log = log' && counters = counters' && events = events' && String.equal digest digest')

let test_link_one_channel_per_wire () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 1) () in
  ignore (Sim.Link.chan l ignore);
  Alcotest.check_raises "second channel"
    (Invalid_argument "Link.chan: the wire already has its channel") (fun () ->
      ignore (Sim.Link.chan l ignore))

(* ---- Delay_line ---------------------------------------------------------- *)

let test_delay_line () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let line = Sim.Delay_line.create e (fun x -> fired := (x, Sim.Engine.now e) :: !fired) in
  (* equal due times keep push order; one engine event per push *)
  List.iter (fun (x, at) -> Sim.Delay_line.push line ~at x) [ (1, 5); (2, 5); (3, 9); (4, 12) ];
  Alcotest.(check int) "queued" 4 (Sim.Delay_line.length line);
  Alcotest.(check int) "one event per push" 4 (Sim.Engine.pending e);
  Alcotest.check_raises "earlier due time"
    (Invalid_argument "Delay_line.push: due time earlier than the last") (fun () ->
      Sim.Delay_line.push line ~at:11 5);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int))) "FIFO at due times"
    [ (1, 5); (2, 5); (3, 9); (4, 12) ] (List.rev !fired);
  Alcotest.(check int) "events" 4 (Sim.Engine.events_processed e);
  Alcotest.(check int) "drained" 0 (Sim.Delay_line.length line)

(* ---- the message path allocates nothing ----------------------------------- *)

(* Words allocated by [f ()], per [n]. *)
let words_per ~n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

let drain e =
  while Sim.Engine.step e do
    ()
  done

(* DESIGN.md's flattened-event-path table: on a warmed typed channel a
   send and its delivery allocate nothing, batched or not; neither does a
   delay-line push and its fire, nor a server submit and its completion
   beyond the caller's own continuation. *)
let test_message_path_allocates_nothing () =
  let n = 50_000 in
  let e = Sim.Engine.create () in
  let l = Sim.Link.create ~bandwidth_bytes_per_us:1. e ~latency:(Sim.Time.of_ms 1) () in
  let got = ref 0 in
  let c = Sim.Link.chan l (fun x -> got := !got + x) in
  let burst () =
    (* sizes 0, 0, 1, 1, ...: pairs share an arrival instant *)
    for i = 0 to 63 do
      Sim.Link.send c ~size_bytes:(i / 2) 1
    done;
    drain e
  in
  burst ();
  let words = words_per ~n (fun () -> for _ = 1 to n / 64 do burst () done) in
  Alcotest.(check (float 0.)) "Link.send and delivery" 0. words;
  Alcotest.(check int) "all delivered" (64 * (1 + (n / 64))) !got;
  let line = Sim.Delay_line.create e (fun x -> got := !got + x) in
  let push_burst () =
    let now = Sim.Engine.now e in
    for i = 0 to 63 do
      Sim.Delay_line.push line ~at:(now + (i / 3)) 1
    done;
    drain e
  in
  push_burst ();
  let words = words_per ~n (fun () -> for _ = 1 to n / 64 do push_burst () done) in
  Alcotest.(check (float 0.)) "Delay_line.push and fire" 0. words;
  let s = Sim.Server.create e (fun k -> k ()) in
  let k () = incr got in
  let submit_burst () =
    for i = 0 to 63 do
      Sim.Server.submit s ~cost:(Sim.Time.of_us (i land 3)) k
    done;
    drain e
  in
  submit_burst ();
  let words = words_per ~n (fun () -> for _ = 1 to n / 64 do submit_burst () done) in
  Alcotest.(check (float 0.)) "Server.submit and completion" 0. words

(* ---- Server -------------------------------------------------------------- *)

let test_server_serializes () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e (fun k -> k ()) in
  let finish = ref [] in
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 2) (fun () -> finish := (1, Sim.Engine.now e) :: !finish);
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 3) (fun () -> finish := (2, Sim.Engine.now e) :: !finish);
  Sim.Engine.run e;
  (match List.rev !finish with
  | [ (1, t1); (2, t2) ] ->
    Alcotest.(check int) "first at 2ms" 2_000 t1;
    Alcotest.(check int) "second queued behind" 5_000 t2
  | _ -> Alcotest.fail "completion order wrong");
  Alcotest.(check int) "busy time" 5_000 (Sim.Time.to_us (Sim.Server.busy_time s));
  Alcotest.(check int) "completed" 2 (Sim.Server.completed s)

let test_server_idle_gap () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e (fun k -> k ()) in
  let at = ref 0 in
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 1) (fun () -> ());
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () ->
      Sim.Server.submit s ~cost:(Sim.Time.of_ms 1) (fun () -> at := Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "no phantom queueing after idle" 11_000 !at

(* ---- Topology / EC2 ------------------------------------------------------ *)

let test_topology_validation () =
  let names = [| "a"; "b" |] in
  Alcotest.check_raises "asymmetric" (Invalid_argument "Topology.create: asymmetric matrix")
    (fun () -> ignore (Sim.Topology.create ~names ~latency_ms:[| [| 0; 1 |]; [| 2; 0 |] |]));
  Alcotest.check_raises "diagonal" (Invalid_argument "Topology.create: non-zero diagonal")
    (fun () -> ignore (Sim.Topology.create ~names ~latency_ms:[| [| 1; 1 |]; [| 1; 0 |] |]))

let test_ec2_matrix () =
  let t = Sim.Ec2.topology in
  Alcotest.(check int) "seven regions" 7 (Sim.Topology.n_sites t);
  Alcotest.(check int) "I-F 10ms" 10_000 (Sim.Time.to_us (Sim.Topology.latency t Sim.Ec2.i Sim.Ec2.f));
  Alcotest.(check int) "F-S 161ms" 161_000 (Sim.Time.to_us (Sim.Topology.latency t Sim.Ec2.f Sim.Ec2.s));
  Alcotest.(check string) "name" "T" (Sim.Topology.name t Sim.Ec2.t);
  Alcotest.(check int) "lookup" Sim.Ec2.o (Sim.Topology.site_of_name t "O");
  (* symmetry of the whole table *)
  for i = 0 to 6 do
    for j = 0 to 6 do
      Alcotest.(check int) "symmetric"
        (Sim.Time.to_us (Sim.Topology.latency t i j))
        (Sim.Time.to_us (Sim.Topology.latency t j i))
    done
  done

let test_topology_sub () =
  let sub, mapping = Sim.Topology.sub Sim.Ec2.topology [ Sim.Ec2.i; Sim.Ec2.s ] in
  Alcotest.(check int) "two sites" 2 (Sim.Topology.n_sites sub);
  Alcotest.(check int) "latency preserved" 154_000 (Sim.Time.to_us (Sim.Topology.latency sub 0 1));
  Alcotest.(check (array int)) "mapping" [| Sim.Ec2.i; Sim.Ec2.s |] mapping

let suite =
  [
    Alcotest.test_case "time units and printing" `Quick test_time_units;
    Alcotest.test_case "keyed heap basics" `Quick test_keyed_heap_basic;
    qtest prop_keyed_heap_sorts;
    qtest prop_keyed_heap_model;
    qtest prop_seq_ring_model;
    qtest prop_flat_table_model;
    Alcotest.test_case "event path allocates nothing" `Quick test_event_path_allocates_nothing;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng golden draws at seed 42" `Quick test_rng_golden;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
    qtest prop_shuffle_is_permutation;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
    Alcotest.test_case "engine time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine FIFO at equal times" `Quick test_engine_fifo_same_time;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine periodic with stop" `Quick test_engine_periodic_stop;
    Alcotest.test_case "engine clamps past-due events" `Quick test_engine_negative_delay_clamped;
    Alcotest.test_case "clock monotonic reads" `Quick test_clock_monotonic;
    Alcotest.test_case "clock offset and drift" `Quick test_clock_offset_drift;
    Alcotest.test_case "link latency" `Quick test_link_latency;
    Alcotest.test_case "link bandwidth term" `Quick test_link_bandwidth;
    Alcotest.test_case "link cut drops traffic" `Quick test_link_cut_drops;
    qtest prop_link_fifo_under_jitter;
    qtest prop_link_matches_reference;
    Alcotest.test_case "one channel per wire" `Quick test_link_one_channel_per_wire;
    Alcotest.test_case "delay line FIFO and due-time check" `Quick test_delay_line;
    Alcotest.test_case "message path allocates nothing" `Quick test_message_path_allocates_nothing;
    Alcotest.test_case "server serializes work" `Quick test_server_serializes;
    Alcotest.test_case "server no phantom queueing" `Quick test_server_idle_gap;
    Alcotest.test_case "topology validation" `Quick test_topology_validation;
    Alcotest.test_case "EC2 Table 1 data" `Quick test_ec2_matrix;
    Alcotest.test_case "topology sub-selection" `Quick test_topology_sub;
  ]
