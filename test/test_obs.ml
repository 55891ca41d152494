(* Observability layer: registry, probe and smoke-run determinism. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- registry --------------------------------------------------------------- *)

let test_registry_counters () =
  let r = Stats.Registry.create () in
  let c = Stats.Registry.counter r "a.hits" in
  Alcotest.(check int) "fresh counter" 0 (Stats.Registry.counter_value c);
  Stats.Registry.incr c;
  Stats.Registry.incr_by c 4;
  Alcotest.(check int) "incremented" 5 (Stats.Registry.counter_value c);
  Alcotest.(check string) "name" "a.hits" (Stats.Registry.counter_name c);
  (* get-or-create: same name is the same counter *)
  let c' = Stats.Registry.counter r "a.hits" in
  Stats.Registry.incr c';
  Alcotest.(check int) "shared" 6 (Stats.Registry.counter_value c)

let test_registry_snapshot () =
  let r = Stats.Registry.create () in
  Stats.Registry.incr_by (Stats.Registry.counter r "z.count") 2;
  Stats.Registry.register_pull r "a.level" (fun () -> 1.5);
  let snap = Stats.Registry.snapshot r in
  Alcotest.(check (list string)) "name-sorted" [ "a.level"; "z.count" ] (List.map fst snap);
  (match Stats.Registry.find r "z.count" with
  | Some (Stats.Registry.Counter 2) -> ()
  | _ -> Alcotest.fail "z.count should be Counter 2");
  match Stats.Registry.find r "missing" with
  | None -> ()
  | Some _ -> Alcotest.fail "missing name should be absent"

let test_registry_kind_clash () =
  let r = Stats.Registry.create () in
  ignore (Stats.Registry.counter r "x");
  Alcotest.check_raises "pull gauge over counter"
    (Invalid_argument "Registry: \"x\" already registered as a counter, not a pull gauge")
    (fun () -> Stats.Registry.register_pull r "x" (fun () -> 0.));
  Stats.Registry.register_pull r "y" (fun () -> 0.);
  Alcotest.check_raises "counter over pull gauge"
    (Invalid_argument "Registry: \"y\" already registered as a pull gauge, not a counter")
    (fun () -> ignore (Stats.Registry.counter r "y"))

let test_registry_pull () =
  let r = Stats.Registry.create () in
  let v = ref 0 in
  Stats.Registry.register_pull r "engine.steps" (fun () -> float_of_int !v);
  v := 7;
  (match Stats.Registry.find r "engine.steps" with
  | Some (Stats.Registry.Gauge g) -> Alcotest.(check (float 1e-9)) "sampled now" 7. g
  | _ -> Alcotest.fail "pull gauge should read as a gauge");
  Alcotest.check_raises "duplicate pull"
    (Invalid_argument "Registry: \"engine.steps\" already registered as a pull gauge, not a pull gauge")
    (fun () -> Stats.Registry.register_pull r "engine.steps" (fun () -> 0.))

let test_registry_sum_prefix () =
  let r = Stats.Registry.create () in
  Stats.Registry.incr_by (Stats.Registry.counter r "proxy.dc0.applied") 3;
  Stats.Registry.incr_by (Stats.Registry.counter r "proxy.dc1.applied") 4;
  Stats.Registry.incr_by (Stats.Registry.counter r "sink.dc0.emitted") 9;
  Alcotest.(check int) "proxy total" 7 (Stats.Registry.sum_counters r ~prefix:"proxy.");
  Alcotest.(check int) "no match" 0 (Stats.Registry.sum_counters r ~prefix:"nope.")

(* ---- probe ------------------------------------------------------------------ *)

let test_probe_record_and_digest () =
  let p = Sim.Probe.create () in
  Sim.Probe.with_probe p (fun () ->
      Alcotest.(check bool) "active" true (Sim.Probe.active ());
      Sim.Probe.engine_step ~at:(Sim.Time.of_us 5) ~seq:0;
      Sim.Probe.serializer_hop ~at:(Sim.Time.of_us 9) ~from_ser:0 ~to_ser:1);
  Alcotest.(check bool) "inactive" false (Sim.Probe.active ());
  Alcotest.(check int) "count" 2 (Sim.Probe.count p);
  Alcotest.(check (list (pair string int)))
    "counts by kind"
    [ ("engine_step", 1); ("serializer_hop", 1) ]
    (Sim.Probe.counts_by_kind p);
  (* same events, same digest; one more event, different digest *)
  let q = Sim.Probe.create () in
  Sim.Probe.with_probe q (fun () ->
      Sim.Probe.engine_step ~at:(Sim.Time.of_us 5) ~seq:0;
      Sim.Probe.serializer_hop ~at:(Sim.Time.of_us 9) ~from_ser:0 ~to_ser:1);
  Alcotest.(check string) "replayed digest" (Sim.Probe.digest p) (Sim.Probe.digest q);
  Sim.Probe.with_probe q (fun () -> Sim.Probe.link_deliver ~at:(Sim.Time.of_us 11));
  Alcotest.(check bool) "digest moved" false
    (String.equal (Sim.Probe.digest p) (Sim.Probe.digest q))

(* ---- probe rendering -------------------------------------------------------- *)

(* 64-bit FNV-1a over a string: what [Probe.digest] must equal over the
   JSONL form of the stream *)
let reference_fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let span sk ~origin ~seq ~aux ~site ~peer ~epoch =
  { Sim.Probe.sk; origin; seq; aux; site; peer; epoch }

(* plants a stamped stream into [p] through the typed emitters *)
let record_all p stamped =
  Sim.Probe.with_probe p (fun () ->
      List.iter (fun (t, ev) -> Probe_reference.record ~at:(Sim.Time.of_us t) ev) stamped)

(* every constructor, every span kind, and the integer edges: 0, one and
   many digits, negatives and Time.infinity = max_int *)
let golden =
  let open Probe_reference in
  let open Sim.Probe in
  let inf = Sim.Time.to_us Sim.Time.infinity in
  [
    (0, Engine_step { seq = 0 }, {|{"t":0,"ev":"engine_step","seq":0}|});
    (5, Link_send { size_bytes = 7 }, {|{"t":5,"ev":"link_send","bytes":7}|});
    (inf, Link_deliver, {|{"t":4611686018427387903,"ev":"link_deliver"}|});
    (10, Link_drop { in_flight = true }, {|{"t":10,"ev":"link_drop","why":"cut"}|});
    (11, Link_drop { in_flight = false }, {|{"t":11,"ev":"link_drop","why":"down"}|});
    (12, Fifo_resend { sender = 3; seq = 12345 }, {|{"t":12,"ev":"fifo_resend","sender":3,"seq":12345}|});
    ( 1500000,
      Label_forward { dc = 1; gear = 2; ts = 1499990; oseq = -1; inst = 0; epoch = 1 },
      {|{"t":1500000,"ev":"label_forward","dc":1,"gear":2,"ts":1499990,"oseq":-1,"inst":0,"epoch":1}|}
    );
    (1200, Serializer_hop { from_ser = 0; to_ser = 1 }, {|{"t":1200,"ev":"serializer_hop","from":0,"to":1}|});
    (99, Serializer_deliver { dc = 2 }, {|{"t":99,"ev":"serializer_deliver","dc":2}|});
    (100, Delay_wait { serializer = 4; us = 250 }, {|{"t":100,"ev":"delay_wait","serializer":4,"us":250}|});
    (101, Chain_ack { seq = 99 }, {|{"t":101,"ev":"chain_ack","seq":99}|});
    ( 102,
      Ser_commit { ser = 1; origin = 2; oseq = 17; epoch = 0 },
      {|{"t":102,"ev":"ser_commit","ser":1,"origin":2,"oseq":17,"epoch":0}|} );
    (103, Head_change { ser = 0 }, {|{"t":103,"ev":"head_change","ser":0}|});
    (104, Sink_emit { dc = 0; ts = inf }, {|{"t":104,"ev":"sink_emit","dc":0,"ts":4611686018427387903}|});
    ( 7,
      Proxy_apply { dc = 2; src_dc = 0; gear = 1; ts = 33; fallback = true },
      {|{"t":7,"ev":"proxy_apply","dc":2,"src":0,"gear":1,"ts":33,"via":"fallback"}|} );
    ( 8,
      Proxy_apply { dc = 1; src_dc = 2; gear = 0; ts = 8; fallback = false },
      {|{"t":8,"ev":"proxy_apply","dc":1,"src":2,"gear":0,"ts":8,"via":"stream"}|} );
    (20, Proxy_mode { dc = 1; mode = Stream }, {|{"t":20,"ev":"proxy_mode","dc":1,"mode":"stream"}|});
    (21, Proxy_mode { dc = 1; mode = Fallback }, {|{"t":21,"ev":"proxy_mode","dc":1,"mode":"fallback"}|});
    (30, Stab_round { dc = 0; gst = -5 }, {|{"t":30,"ev":"stab_round","dc":0,"gst":-5}|});
    ( 31,
      Vec_advance { dc = 2; src = 1; ts = min_int },
      {|{"t":31,"ev":"vec_advance","dc":2,"src":1,"ts":-4611686018427387904}|} );
    (40, Switch_begin { epoch = 2; graceful = true }, {|{"t":40,"ev":"switch_begin","epoch":2,"mode":"graceful"}|});
    (41, Switch_begin { epoch = 3; graceful = false }, {|{"t":41,"ev":"switch_begin","epoch":3,"mode":"forced"}|});
    (42, Switch_done { dc = 2; epoch = 2 }, {|{"t":42,"ev":"switch_done","dc":2,"epoch":2}|});
    ( 42,
      Span_begin (span Sk_chain ~origin:1 ~seq:7 ~aux:0 ~site:2 ~peer:(-1) ~epoch:0),
      {|{"t":42,"ev":"span_begin","kind":"chain","origin":1,"seq":7,"aux":0,"site":2,"peer":-1,"epoch":0}|}
    );
    ( 50,
      Span_end (span Sk_sink_hold ~origin:0 ~seq:1500000 ~aux:1 ~site:0 ~peer:(-1) ~epoch:0),
      {|{"t":50,"ev":"span_end","kind":"sink_hold","origin":0,"seq":1500000,"aux":1,"site":0,"peer":-1,"epoch":0}|}
    );
    ( 51,
      Span_begin (span Sk_attach ~origin:2 ~seq:0 ~aux:3 ~site:1 ~peer:4 ~epoch:1),
      {|{"t":51,"ev":"span_begin","kind":"attach","origin":2,"seq":0,"aux":3,"site":1,"peer":4,"epoch":1}|}
    );
    ( 52,
      Span_end (span Sk_delay_hop ~origin:1 ~seq:22 ~aux:0 ~site:3 ~peer:5 ~epoch:2),
      {|{"t":52,"ev":"span_end","kind":"delay_hop","origin":1,"seq":22,"aux":0,"site":3,"peer":5,"epoch":2}|}
    );
    ( 53,
      Span_begin (span Sk_hop ~origin:0 ~seq:9 ~aux:1 ~site:0 ~peer:1 ~epoch:0),
      {|{"t":53,"ev":"span_begin","kind":"hop","origin":0,"seq":9,"aux":1,"site":0,"peer":1,"epoch":0}|}
    );
    ( 54,
      Span_end (span Sk_delay_egress ~origin:2 ~seq:10 ~aux:0 ~site:1 ~peer:2 ~epoch:0),
      {|{"t":54,"ev":"span_end","kind":"delay_egress","origin":2,"seq":10,"aux":0,"site":1,"peer":2,"epoch":0}|}
    );
    ( 55,
      Span_begin (span Sk_egress ~origin:1 ~seq:123456789 ~aux:2 ~site:4 ~peer:0 ~epoch:0),
      {|{"t":55,"ev":"span_begin","kind":"egress","origin":1,"seq":123456789,"aux":2,"site":4,"peer":0,"epoch":0}|}
    );
    ( 56,
      Span_end (span Sk_proxy_order ~origin:0 ~seq:8 ~aux:0 ~site:2 ~peer:(-1) ~epoch:0),
      {|{"t":56,"ev":"span_end","kind":"proxy_order","origin":0,"seq":8,"aux":0,"site":2,"peer":-1,"epoch":0}|}
    );
    ( 57,
      Span_begin (span Sk_bulk ~origin:2 ~seq:77 ~aux:0 ~site:2 ~peer:0 ~epoch:0),
      {|{"t":57,"ev":"span_begin","kind":"bulk","origin":2,"seq":77,"aux":0,"site":2,"peer":0,"epoch":0}|}
    );
    ( 58,
      Span_end (span Sk_stab ~origin:1 ~seq:60 ~aux:0 ~site:1 ~peer:(-1) ~epoch:0),
      {|{"t":58,"ev":"span_end","kind":"stab","origin":1,"seq":60,"aux":0,"site":1,"peer":-1,"epoch":0}|}
    );
  ]

(* everything [write_jsonl] writes, as one string *)
let jsonl_of p =
  let path = Filename.temp_file "probe" ".jsonl" in
  let oc = open_out_bin path in
  Sim.Probe.write_jsonl p oc;
  close_out oc;
  let ic = open_in_bin path in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  written

(* the digest hashes this rendering: lock the format, as each kind's typed
   emitter writes it *)
let test_probe_json_stable () =
  let p = Sim.Probe.create () in
  record_all p (List.map (fun (t, ev, _) -> (t, ev)) golden);
  let lines = String.split_on_char '\n' (jsonl_of p) in
  List.iteri
    (fun i (t, ev, want) ->
      Alcotest.(check string) "golden line" want (List.nth lines i);
      Alcotest.(check string)
        "reference agrees" want
        (Probe_reference.to_json (Sim.Time.of_us t) ev))
    golden;
  (* 19 point kinds + 10 span kinds (begins and ends share a bucket) *)
  Alcotest.(check int) "every kind covered" 29 (List.length (Sim.Probe.counts_by_kind p));
  (* write_jsonl and the digest see the same lines *)
  let jsonl = String.concat "" (List.map (fun (_, _, want) -> want ^ "\n") golden) in
  Alcotest.(check string) "write_jsonl" jsonl (jsonl_of p);
  Alcotest.(check string) "digest over the JSONL" (reference_fnv jsonl) (Sim.Probe.digest p)

let gen_int =
  QCheck.Gen.(
    frequency [ (4, small_signed_int); (2, int); (1, oneofl [ 0; -1; 9; 10; max_int; min_int ]) ])

let gen_event =
  let open QCheck.Gen in
  let open Probe_reference in
  let open Sim.Probe in
  let gen_span =
    map
      (fun ((sk, origin, seq), (aux, site, peer, epoch)) -> { sk; origin; seq; aux; site; peer; epoch })
      (pair
         (triple
            (oneofl
               [ Sk_sink_hold; Sk_attach; Sk_chain; Sk_delay_hop; Sk_hop; Sk_delay_egress; Sk_egress;
                 Sk_proxy_order; Sk_bulk; Sk_stab ])
            gen_int gen_int)
         (quad gen_int gen_int gen_int gen_int))
  in
  oneof
    [
      map (fun seq -> Engine_step { seq }) gen_int;
      map (fun size_bytes -> Link_send { size_bytes }) gen_int;
      return Link_deliver;
      map (fun in_flight -> Link_drop { in_flight }) bool;
      map2 (fun sender seq -> Fifo_resend { sender; seq }) gen_int gen_int;
      map
        (fun ((dc, gear, ts), (oseq, inst, epoch)) -> Label_forward { dc; gear; ts; oseq; inst; epoch })
        (pair (triple gen_int gen_int gen_int) (triple gen_int gen_int gen_int));
      map2 (fun from_ser to_ser -> Serializer_hop { from_ser; to_ser }) gen_int gen_int;
      map (fun dc -> Serializer_deliver { dc }) gen_int;
      map2 (fun serializer us -> Delay_wait { serializer; us }) gen_int gen_int;
      map (fun seq -> Chain_ack { seq }) gen_int;
      map
        (fun (ser, origin, oseq, epoch) -> Ser_commit { ser; origin; oseq; epoch })
        (quad gen_int gen_int gen_int gen_int);
      map (fun ser -> Head_change { ser }) gen_int;
      map2 (fun dc ts -> Sink_emit { dc; ts }) gen_int gen_int;
      map
        (fun ((dc, src_dc, gear), (ts, fallback)) -> Proxy_apply { dc; src_dc; gear; ts; fallback })
        (pair (triple gen_int gen_int gen_int) (pair gen_int bool));
      map2 (fun dc mode -> Proxy_mode { dc; mode }) gen_int (oneofl [ Stream; Fallback ]);
      map2 (fun dc gst -> Stab_round { dc; gst }) gen_int gen_int;
      map3 (fun dc src ts -> Vec_advance { dc; src; ts }) gen_int gen_int gen_int;
      map2 (fun epoch graceful -> Switch_begin { epoch; graceful }) gen_int bool;
      map2 (fun dc epoch -> Switch_done { dc; epoch }) gen_int gen_int;
      map (fun s -> Span_begin s) gen_span;
      map (fun s -> Span_end s) gen_span;
    ]

let gen_stamped =
  QCheck.Gen.(pair (frequency [ (4, nat); (1, oneofl [ 0; Sim.Time.to_us Sim.Time.infinity ]) ]) gen_event)

(* A digest folds each literal of the line format through a 128-entry
   table indexed by the low bits of the running hash, so a case starts
   after a random prefix of events: over the cases those bits take many
   values. Both probes record through the typed emitters: a count-only
   probe and one streaming its JSONL must both digest the reference
   bytes, and the streamed bytes must be them. *)
let prop_render_matches_reference =
  QCheck.Test.make ~name:"buffer renderer and digest match the Printf reference" ~count:300
    (QCheck.make
       ~print:(fun (prefix, evs) ->
         let line (t, ev) = Probe_reference.to_json (Sim.Time.of_us t) ev in
         Printf.sprintf "after a %d-event prefix:\n%s" (List.length prefix)
           (String.concat "\n" (List.map line evs)))
       QCheck.Gen.(
         pair (list_size (int_range 0 8) gen_stamped) (list_size (int_range 0 20) gen_stamped)))
    (fun (prefix, evs) ->
      let all = prefix @ evs in
      let p = Sim.Probe.create ~keep:false () in
      record_all p all;
      let path = Filename.temp_file "probe" ".jsonl" in
      let oc = open_out_bin path in
      let q = Sim.Probe.create ~keep:false () in
      Sim.Probe.stream_jsonl q oc;
      record_all q all;
      close_out oc;
      let ic = open_in_bin path in
      let streamed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      let lines = List.map (fun (t, ev) -> Probe_reference.to_json (Sim.Time.of_us t) ev) all in
      let jsonl = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      String.equal (Sim.Probe.digest p) (reference_fnv jsonl)
      && String.equal streamed jsonl
      && String.equal (reference_fnv streamed) (Sim.Probe.digest q))

(* the packed kept trace round-trips *)
let kept_trace_roundtrips stamped =
  let p = Sim.Probe.create () in
  record_all p stamped;
  let back = ref [] in
  Sim.Probe.iter_views p (fun at v ->
      back := (Sim.Time.to_us at, Probe_reference.of_view v) :: !back);
  let want =
    List.map (fun (t, ev) -> Probe_reference.to_json (Sim.Time.of_us t) ev ^ "\n") stamped
  in
  List.rev !back = stamped && String.equal (jsonl_of p) (String.concat "" want)

(* [iter_views] returns exactly the emitted stream and [write_jsonl] is
   the reference lines, over every constructor with fields at the integer
   edges. Times are drawn from the same edges — [min_int] after [max_int]
   wraps the stored time delta — and 10k–20k events average well over
   the 64 KiB chunk, so every case seals several chunks. *)
let prop_kept_trace_roundtrip =
  QCheck.Test.make ~name:"packed kept trace decodes to the emitted stream" ~count:10
    (QCheck.make
       ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs))
       QCheck.Gen.(list_size (int_range 10_000 20_000) (pair gen_int gen_event)))
    kept_trace_roundtrips

(* chunk boundaries at both extremes: runs of the widest event (a span,
   every field and the time delta a 9-byte varint: 0 and [min_int]
   alternate, so each delta is [min_int]) and of the narrowest
   (a two-byte [Link_deliver] at an unchanged time) *)
let test_kept_trace_chunk_edges () =
  let open Probe_reference in
  let open Sim.Probe in
  let wide i =
    let s = { sk = Sk_stab; origin = min_int; seq = max_int; aux = min_int; site = max_int;
              peer = min_int; epoch = max_int } in
    ((if i mod 2 = 0 then 0 else min_int), if i mod 2 = 0 then Span_begin s else Span_end s)
  in
  let stamped =
    List.init 3000 wide @ List.init 70_000 (fun _ -> (5, Link_deliver)) @ List.init 3000 wide
  in
  Alcotest.(check bool) "round trip" true (kept_trace_roundtrips stamped)

(* minor and major words allocated by [f ()]; minor words from
   Gc.minor_words, which is exact: Gc.counters' minor count was seen to
   jump by tens of thousands of words over a loop while Gc.minor_words,
   read around the same loop, moved by a few dozen *)
let words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0))

let span_kinds =
  Sim.Probe.
    [| Sk_sink_hold; Sk_attach; Sk_chain; Sk_delay_hop; Sk_hop; Sk_delay_egress; Sk_egress;
       Sk_proxy_order; Sk_bulk; Sk_stab |]

let emits_per_round = 22 + (2 * Array.length span_kinds) + 1

(* One round of every kind through its typed emitter, at time [r]: each
   point kind (with sends enough to cover the round's deliver and drops),
   a begin/end pair per span kind, and an end that matches no begin. The
   stream is clean for [Faults.Checker] for rounds 1, 2, …: sequence
   numbers and timestamps advance with [r], and epoch [r] is announced
   before it is done. *)
let emit_round r =
  let open Sim.Probe in
  let at = Sim.Time.of_us r in
  let odd = r land 1 = 1 in
  engine_step ~at ~seq:r;
  link_send ~at ~size_bytes:48;
  link_send ~at ~size_bytes:48;
  link_send ~at ~size_bytes:48;
  link_deliver ~at;
  link_drop ~at ~in_flight:true;
  link_drop ~at ~in_flight:false;
  fifo_resend ~at ~sender:1 ~seq:r;
  label_forward ~at ~dc:1 ~gear:0 ~ts:r ~oseq:r ~inst:1 ~epoch:1;
  serializer_hop ~at ~from_ser:0 ~to_ser:1;
  serializer_deliver ~at ~dc:2;
  delay_wait ~at ~serializer:1 ~us:250;
  chain_ack ~at ~seq:r;
  ser_commit ~at ~ser:1 ~origin:1 ~oseq:r ~epoch:1;
  head_change ~at ~ser:0;
  sink_emit ~at ~dc:1 ~ts:r;
  proxy_apply ~at ~dc:0 ~src_dc:1 ~gear:0 ~ts:r ~fallback:odd;
  proxy_mode ~at ~dc:0 ~mode:(if odd then Fallback else Stream);
  stab_round ~at ~dc:0 ~gst:r;
  vec_advance ~at ~dc:0 ~src:1 ~ts:r;
  switch_begin ~at ~epoch:r ~graceful:odd;
  switch_done ~at ~dc:0 ~epoch:r;
  for k = 0 to Array.length span_kinds - 1 do
    Sim.Span.begin_ ~at ~aux:k ~site:0 ~peer:(-1) ~epoch:0 span_kinds.(k) ~origin:1 ~seq:r
  done;
  let until = Sim.Time.of_us (r + 1) in
  for k = 0 to Array.length span_kinds - 1 do
    Sim.Span.end_ ~at:until ~aux:k ~site:0 ~peer:(-1) ~epoch:0 span_kinds.(k) ~origin:1 ~seq:r
  done;
  Sim.Span.end_ ~at:until ~aux:0 ~site:0 ~peer:(-1) ~epoch:0 Sk_stab ~origin:1 ~seq:(-r)

(* Emission allocates nothing: after a warm-up that settles every table's
   size, each kind costs 0 minor words per emit, on a count-only probe, on
   a kept probe with a no-op subscriber, and on a kept probe with the
   fault checker subscribed. Without the checker, the packed chunks are
   the only major-heap growth, well under a word per event; the checker's
   own tables grow on the major heap with the fresh keys of every round. *)
let test_emit_alloc () =
  let warm = 2_000 and n = 5_000 in
  let checker = Faults.Checker.create () in
  List.iter
    (fun (name, checked, p) ->
      let minor, major =
        Sim.Probe.with_probe p (fun () ->
            for r = 1 to warm do
              emit_round r
            done;
            words (fun () ->
                for r = warm + 1 to warm + n do
                  emit_round r
                done))
      in
      let rounds = warm + n in
      Alcotest.(check int) (name ^ ": recorded") (rounds * emits_per_round) (Sim.Probe.count p);
      Alcotest.(check int)
        (name ^ ": pairs")
        (rounds * Array.length span_kinds)
        (List.fold_left (fun acc (_, c) -> acc + c) 0 (Sim.Probe.span_counts p));
      Alcotest.(check int) (name ^ ": orphans") rounds (Sim.Probe.span_orphans p);
      Alcotest.(check int) (name ^ ": none open") 0 (Sim.Probe.open_span_count p);
      Alcotest.(check (float 0.)) (name ^ ": minor words per emit") 0.
        (minor /. float_of_int (n * emits_per_round));
      if (not checked) && major > float_of_int (n * emits_per_round) then
        Alcotest.failf "%s: %.0f major words over %d emits" name major (n * emits_per_round))
    [ ("count-only", false, Sim.Probe.create ~keep:false ());
      ( "kept, no-op subscriber",
        false,
        let p = Sim.Probe.create () in
        Sim.Probe.subscribe p (fun _ _ -> ());
        p );
      ( "kept, checker subscribed",
        true,
        let p = Sim.Probe.create () in
        Sim.Probe.subscribe p (Faults.Checker.step checker);
        p ) ];
  let r = Faults.Checker.report checker in
  Alcotest.(check bool) "checker: clean" true (Faults.Checker.ok r);
  Alcotest.(check int) "checker: commits" (warm + n) r.Faults.Checker.commits

(* The codec on real traffic: the seed-42 reconfig-forced Saturn row
   carries flagged events, a reconfiguration switch and every span kind
   but the baselines' stabilization hold, which the seq-crash Eunomia row
   adds. Decoding each row's kept trace and re-recording it into a fresh
   probe must reproduce the digest, the per-kind counts, the span totals
   and the checker's report. *)
let test_codec_roundtrip_real_traffic () =
  let rows =
    List.map
      (fun (scenario, system) -> Harness.Fault_run.run_scenario ~seed:42 ~scenario ~system ())
      [ ("reconfig-forced", `Saturn); ("seq-crash", `Eunomia) ]
  in
  let kinds =
    List.concat_map
      (fun o -> List.map fst (Sim.Probe.counts_by_kind o.Harness.Fault_run.probe))
      rows
  in
  List.iter
    (fun k -> Alcotest.(check bool) ("carries " ^ k) true (List.mem k kinds))
    ("switch_begin" :: "switch_done"
    :: Array.to_list (Array.map (fun sk -> "span." ^ Sim.Probe.span_kind_name sk) span_kinds));
  let flagged = ref 0 in
  List.iter
    (fun o ->
      Sim.Probe.iter_views o.Harness.Fault_run.probe (fun _ v ->
          if v.Sim.Probe.flag then incr flagged))
    rows;
  Alcotest.(check bool) "carries flagged events" true (!flagged > 0);
  List.iter
    (fun o ->
      let p = o.Harness.Fault_run.probe in
      let row = o.Harness.Fault_run.scenario ^ "/" ^ o.Harness.Fault_run.system in
      let q = Sim.Probe.create () in
      let c = Faults.Checker.create () in
      Sim.Probe.subscribe q (Faults.Checker.step c);
      Sim.Probe.with_probe q (fun () ->
          Sim.Probe.iter_views p (fun at v ->
              Probe_reference.record ~at (Probe_reference.of_view v)));
      Alcotest.(check int) (row ^ ": count") (Sim.Probe.count p) (Sim.Probe.count q);
      Alcotest.(check string) (row ^ ": digest") (Sim.Probe.digest p) (Sim.Probe.digest q);
      Alcotest.(check (list (pair string int)))
        (row ^ ": counts by kind") (Sim.Probe.counts_by_kind p) (Sim.Probe.counts_by_kind q);
      Alcotest.(check (list (pair string int)))
        (row ^ ": span totals") (Sim.Probe.span_totals_us p) (Sim.Probe.span_totals_us q);
      let same_report what r =
        if r <> o.Harness.Fault_run.report then
          Alcotest.failf "%s: %s differs:@.%a@.against@.%a" row what Faults.Checker.pp r
            Faults.Checker.pp o.Harness.Fault_run.report
      in
      same_report "re-recorded, streamed checker" (Faults.Checker.report c);
      same_report "re-recorded, analyzed checker" (Faults.Checker.analyze q))
    rows

let test_probe_unbuffered () =
  let p = Sim.Probe.create ~keep:false () in
  Sim.Probe.with_probe p (fun () ->
      Sim.Probe.link_deliver ~at:Sim.Time.zero;
      Sim.Probe.link_drop ~at:Sim.Time.zero ~in_flight:false);
  Alcotest.(check int) "counted" 2 (Sim.Probe.count p);
  Alcotest.(check (list (pair string int)))
    "kinds survive" [ ("link_deliver", 1); ("link_drop", 1) ]
    (Sim.Probe.counts_by_kind p);
  Alcotest.check_raises "no kept events to iterate"
    (Invalid_argument "Probe.iter_views: probe created with ~keep:false") (fun () ->
      Sim.Probe.iter_views p (fun _ _ -> ()));
  (* digest matches a buffered probe over the same stream *)
  let q = Sim.Probe.create () in
  Sim.Probe.with_probe q (fun () ->
      Sim.Probe.link_deliver ~at:Sim.Time.zero;
      Sim.Probe.link_drop ~at:Sim.Time.zero ~in_flight:false);
  Alcotest.(check string) "keep-independent digest" (Sim.Probe.digest q) (Sim.Probe.digest p)

let prop_smoke_digest_deterministic =
  QCheck.Test.make ~name:"same-seed smoke runs digest identically" ~count:3
    QCheck.(int_bound 1000)
    (fun seed ->
      let a = Harness.Obs.smoke ~seed () in
      let b = Harness.Obs.smoke ~seed () in
      String.equal a.Harness.Obs.digest b.Harness.Obs.digest
      && a.Harness.Obs.n_events = b.Harness.Obs.n_events)

let smoke42 = lazy (Harness.Obs.smoke ~seed:42 ())

(* An absolute pin, unlike the run-twice gates: a renderer that changed
   the traced bytes consistently would pass those, not this. The value was
   pinned before the probe's record path went allocation-free; it moved
   once since, when the proxy stopped ending ordering-wait spans it had
   never begun (7 458 fewer span ends). *)
let test_smoke_digest_pinned () =
  let r = Lazy.force smoke42 in
  Alcotest.(check int) "events" 726361 r.Harness.Obs.n_events;
  Alcotest.(check string) "digest" "1bee91b3f2a5edb6" r.Harness.Obs.digest

(* CI's double-run gates compare the code against itself, so a decode
   bug that is deterministic passes them; this compares the exported bytes
   with the digest the record path hashed *)
let test_smoke_export_matches_digest () =
  let r = Lazy.force smoke42 in
  Alcotest.(check string) "FNV over write_jsonl" r.Harness.Obs.digest
    (Helpers.fnv_of_jsonl r.Harness.Obs.probe)

let test_smoke_counters_nonzero () =
  let r = Lazy.force smoke42 in
  let reg = r.Harness.Obs.registry in
  let counter name =
    match Stats.Registry.find reg name with
    | Some (Stats.Registry.Counter n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " > 0") true (counter name > 0))
    [ "probe.engine_step"; "probe.link_send"; "probe.serializer_hop"; "probe.proxy_apply" ];
  Alcotest.(check bool) "proxies applied" true (Stats.Registry.sum_counters reg ~prefix:"proxy." > 0);
  Alcotest.(check bool) "different seed, different digest" false
    (String.equal r.Harness.Obs.digest (Harness.Obs.smoke ~seed:7 ()).Harness.Obs.digest)

(* BENCH_smoke.json's visibility figures come from the run's own [Hdr]; it
   must hold every visible remote update the windowed series saw, with the
   same extremes, and the percentiles the JSON prints must be its own *)
let test_smoke_visibility_hdr () =
  let r = Lazy.force smoke42 in
  let vis = r.Harness.Obs.visibility in
  let points = Stats.Series.points r.Harness.Obs.series "series.vis_ms" in
  let seen = Array.fold_left (fun a (p : Stats.Series.point) -> a + p.count) 0 points in
  Alcotest.(check bool) "visibility observed" true (Stats.Hdr.count vis > 0);
  Alcotest.(check int) "hdr count = series observations" seen (Stats.Hdr.count vis);
  let peak = Array.fold_left (fun a (p : Stats.Series.point) -> Float.max a p.vmax) 0. points in
  Alcotest.(check (float 1e-9)) "hdr max = series max (ms)" peak
    (float_of_int (Stats.Hdr.max_value vis) /. 1000.);
  let json = Harness.Obs.bench_json ~seed:42 r in
  let expect =
    Printf.sprintf "\"visibility_ms\":{\"n\":%d,\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f}"
      (Stats.Hdr.count vis) (Stats.Hdr.mean vis /. 1000.)
      (Stats.Hdr.percentile vis 50. /. 1000.)
      (Stats.Hdr.percentile vis 99. /. 1000.)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("bench json carries " ^ expect) true (contains json expect)

(* ---- metrics window edges --------------------------------------------------- *)

let test_metrics_window_edges () =
  let topo = Sim.Topology.create ~names:[| "a"; "b" |] ~latency_ms:[| [| 0; 10 |]; [| 10; 0 |] |] in
  let engine = Sim.Engine.create () in
  let metrics = Harness.Metrics.create engine ~topo ~dc_sites:[| 0; 1 |] in
  Harness.Metrics.set_window metrics ~start_at:(Sim.Time.of_ms 10) ~end_at:(Sim.Time.of_ms 20);
  let at ms = Sim.Engine.run ~until:(Sim.Time.of_ms ms) engine in
  at 5;
  Alcotest.(check bool) "before window" false (Harness.Metrics.in_window metrics);
  at 10;
  Alcotest.(check bool) "start edge is inside" true (Harness.Metrics.in_window metrics);
  at 15;
  Alcotest.(check bool) "middle" true (Harness.Metrics.in_window metrics);
  at 20;
  Alcotest.(check bool) "end edge is inside" true (Harness.Metrics.in_window metrics);
  at 25;
  Alcotest.(check bool) "after window" false (Harness.Metrics.in_window metrics)

let test_time_infinity () =
  Alcotest.(check bool) "zero < infinity" true
    (Sim.Time.compare Sim.Time.zero Sim.Time.infinity < 0);
  Alcotest.(check bool) "later than an hour" true
    (Sim.Time.compare (Sim.Time.of_sec 3600.) Sim.Time.infinity < 0);
  Alcotest.(check int) "min with infinity" (Sim.Time.to_us (Sim.Time.of_ms 3))
    (Sim.Time.to_us (Sim.Time.min Sim.Time.infinity (Sim.Time.of_ms 3)))

let suite =
  [
    Alcotest.test_case "registry counters" `Quick test_registry_counters;
    Alcotest.test_case "registry snapshot" `Quick test_registry_snapshot;
    Alcotest.test_case "registry kind clash" `Quick test_registry_kind_clash;
    Alcotest.test_case "registry pull gauges" `Quick test_registry_pull;
    Alcotest.test_case "registry sum by prefix" `Quick test_registry_sum_prefix;
    Alcotest.test_case "probe record + digest" `Quick test_probe_record_and_digest;
    Alcotest.test_case "probe json format" `Quick test_probe_json_stable;
    qtest prop_render_matches_reference;
    qtest prop_kept_trace_roundtrip;
    Alcotest.test_case "kept trace chunk edges" `Quick test_kept_trace_chunk_edges;
    Alcotest.test_case "emit allocation, every kind" `Quick test_emit_alloc;
    Alcotest.test_case "codec round trip on reconfig-forced traffic" `Slow
      test_codec_roundtrip_real_traffic;
    Alcotest.test_case "probe unbuffered mode" `Quick test_probe_unbuffered;
    Alcotest.test_case "smoke counters nonzero" `Slow test_smoke_counters_nonzero;
    Alcotest.test_case "smoke digest pinned (seed 42)" `Slow test_smoke_digest_pinned;
    Alcotest.test_case "smoke export matches digest (seed 42)" `Slow test_smoke_export_matches_digest;
    Alcotest.test_case "smoke visibility hdr matches series and json" `Slow
      test_smoke_visibility_hdr;
    qtest prop_smoke_digest_deterministic;
    Alcotest.test_case "metrics window edges" `Quick test_metrics_window_edges;
    Alcotest.test_case "time infinity" `Quick test_time_infinity;
  ]
