(* Tests for the static analyzer: each rule fires on a minimal fixture, is
   silenced by a waiver, the checked-in [test/lint_fixtures/] examples (the
   same sources [saturn-lint --explain] prints) fire and stop firing as
   advertised, and the whole linter reports zero findings on the real
   [lib/]+[bin/] tree (the invariant CI's lint job enforces). *)

let run ?baseline ?layers ?dune_files ?use_sources sources =
  Lint.Engine.run_sources ?baseline ?layers ?dune_files ?use_sources sources

let rules_of (r : Lint.Report.t) = List.map (fun f -> f.Lint.Rules.rule) r.findings
let has_rule rule r = List.mem rule (rules_of r)
let count_rule rule r = List.length (List.filter (( = ) rule) (rules_of r))
let slist = Alcotest.(list string)

(* ---- R1: unordered-iteration -------------------------------------------- *)

let test_r1_fires () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let keys tbl =
  let out = ref [] in
  Hashtbl.iter (fun k _ -> out := k :: !out) tbl;
  !out
|}
        );
      ]
  in
  Alcotest.check slist "one R1 finding" [ Lint.Rules.r_unordered ] (rules_of r);
  let f = List.hd r.findings in
  Alcotest.(check int) "on the iter line" 3 f.Lint.Rules.line

let test_r1_sorted_same_expression () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let pairs tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
|}
        );
      ]
  in
  Alcotest.check slist "sort in the same expression silences R1" [] (rules_of r)

let test_r1_binding_sorted_later_ok () =
  (* the def-use classifier follows the binding: a fold whose result is
     only ever read through List.sort is order-safe even when the sort
     lives a statement away *)
  let r =
    run
      [
        ( "lib/x.ml",
          {|let keys tbl =
  let l = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort compare l
|}
        );
      ]
  in
  Alcotest.check slist "sorted-before-read binding is safe" [] (rules_of r)

let test_r1_binding_read_unsorted_fires () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let first tbl =
  let l = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.hd l
|}
        );
      ]
  in
  Alcotest.(check bool) "unsorted read of the binding fires" true
    (has_rule Lint.Rules.r_unordered r)

let test_r1_commutative_fold_ok () =
  let r =
    run
      [
        ("lib/x.ml", "let sum tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0\n");
      ]
  in
  Alcotest.check slist "commutative reduction needs no waiver" [] (rules_of r)

let test_r1_noncommutative_fold_fires () =
  (* string concatenation depends on visit order: the commutative-fold
     classifier must not excuse it *)
  let r =
    run
      [
        ("lib/x.ml", "let join tbl = Hashtbl.fold (fun _ v acc -> acc ^ v) tbl \"\"\n");
      ]
  in
  Alcotest.check slist "order-dependent fold fires" [ Lint.Rules.r_unordered ] (rules_of r)

let test_r1_pipeline_sort_ok () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let pairs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
|}
        );
      ]
  in
  Alcotest.check slist "|> List.sort counts as the same expression" [] (rules_of r)

let test_r1_functor_instance () =
  (* a module bound to Hashtbl.Make is a hash table: its fold walks the
     buckets in hash order, so an escaping result fires just as
     Hashtbl.fold's would — and a removal-only use of it is safe *)
  let tbl_module =
    {|module Label_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (b * 31) + a
end)
|}
  in
  let r =
    run
      [
        ( "lib/x.ml",
          tbl_module
          ^ {|
let first tbl = List.hd (Label_tbl.fold (fun k _ acc -> k :: acc) tbl [])
|} );
      ]
  in
  Alcotest.check slist "escaping functor-instance fold fires" [ Lint.Rules.r_unordered ]
    (rules_of r);
  Alcotest.(check int) "on the fold line" 8 (List.hd r.findings).Lint.Rules.line;
  let r =
    run
      [
        ( "lib/x.ml",
          tbl_module
          ^ {|
let prune tbl floor =
  let stale = Label_tbl.fold (fun k v acc -> if v < floor then k :: acc else acc) tbl [] in
  List.iter (Label_tbl.remove tbl) stale

let total tbl = Label_tbl.fold (fun _ v acc -> acc + v) tbl 0
|} );
      ]
  in
  Alcotest.check slist "removal-only and commutative instance folds are safe" [] (rules_of r);
  (* the binding is what makes it a table: the same call on a module the
     file does not bind to Hashtbl.Make is not an iteration site *)
  let r =
    run [ ("lib/x.ml", "let first m = List.hd (Label_tbl.fold (fun k _ acc -> k :: acc) m [])\n") ]
  in
  Alcotest.check slist "unbound module is not a table" [] (rules_of r);
  Alcotest.(check (list string)) "hash_tables finds the binding" [ "Label_tbl" ]
    (Lint.Dataflow.hash_tables (fst (Lint.Token.tokenize tbl_module)))

let test_r1_waiver () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let join tbl =
  (* lint: allow unordered-iteration -- all values are identical by construction *)
  Hashtbl.fold (fun _ v acc -> acc ^ v) tbl ""
|}
        );
      ]
  in
  Alcotest.check slist "waiver silences R1" [] (rules_of r);
  Alcotest.(check int) "waiver counted as used" 1 r.waivers_used

(* ---- R2: ambient-nondeterminism ------------------------------------------ *)

let test_r2_fires () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let now () = Unix.gettimeofday ()
let pick n = Random.int n
let wire v = Marshal.to_string v []
let h x = Hashtbl.hash x
|}
        );
      ]
  in
  Alcotest.(check int) "four ambient sites" 4 (count_rule Lint.Rules.r_ambient r)

let test_r2_seeded_state_ok () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let pick st n = Random.State.int st n
let mk seed = Random.State.make [| seed |]
|}
        );
      ]
  in
  Alcotest.check slist "seeded Random.State is allowed" [] (rules_of r)

(* ---- R5: physical-equality ------------------------------------------------ *)

let test_r5_fires_and_waives () =
  let r = run [ ("lib/x.ml", "let same a b = a == b\n") ] in
  Alcotest.check slist "R5 fires on ==" [ Lint.Rules.r_physeq ] (rules_of r);
  let r =
    run
      [
        ( "lib/x.ml",
          {|(* lint: allow physical-equality -- intentional identity check *)
let same a b = a == b
|}
        );
      ]
  in
  Alcotest.check slist "waived" [] (rules_of r)

let test_r5_not_confused_by_strings () =
  let r = run [ ("lib/x.ml", "let s = \"a == b\"\nlet c = '='\n") ] in
  Alcotest.check slist "== inside a string literal is not a finding" [] (rules_of r)

(* ---- R3: span-pairing ----------------------------------------------------- *)

let test_r3_unbalanced () =
  let r =
    run
      [
        ("lib/a.ml", "let f tr ~at = Sim.Span.begin_ tr ~at Sim.Span.Sk_flush\n");
      ]
  in
  Alcotest.check slist "begin without end" [ Lint.Rules.r_span ] (rules_of r)

let test_r3_paired_across_files () =
  let r =
    run
      [
        ("lib/a.ml", "let f tr ~at = Sim.Span.begin_ tr ~at Sim.Span.Sk_flush\n");
        ("lib/b.ml", "let g tr ~at = Sim.Span.end_ tr ~at Sim.Span.Sk_flush\n");
      ]
  in
  Alcotest.check slist "matching end in another file pairs up" [] (rules_of r)

let test_r3_unresolved_kind () =
  let r =
    run [ ("lib/a.ml", "let f tr ~at kind = Sim.Span.begin_ tr ~at kind\n") ] in
  Alcotest.check slist "kind not statically resolvable" [ Lint.Rules.r_span ] (rules_of r);
  let f = List.hd r.findings in
  Alcotest.(check bool) "message says unresolvable" true
    (String.length f.message > 0
    && String.sub f.message 0 14 = "cannot resolve")

let test_r3_helper_segment_fallback () =
  (* the Sk_* constructor may sit a statement away when a helper binds the
     call first (Proxy.span_label does this) *)
  let r =
    run
      [
        ( "lib/a.ml",
          {|let span_do tr ~at =
  let go = Sim.Span.begin_ tr ~at in
  go Sim.Span.Sk_flush
let close tr ~at = Sim.Span.end_ tr ~at Sim.Span.Sk_flush
|}
        );
      ]
  in
  Alcotest.check slist "enclosing-segment fallback resolves the kind" [] (rules_of r)

(* ---- R4: counter-name-grammar --------------------------------------------- *)

let test_r4_grammar () =
  let r =
    run [ ("lib/a.ml", "let c reg = Stats.Registry.counter reg \"Bad Name.x\"\n") ] in
  Alcotest.check slist "bad characters" [ Lint.Rules.r_counter ] (rules_of r);
  let r = run [ ("lib/a.ml", "let c reg = Stats.Registry.counter reg \"plain\"\n") ] in
  Alcotest.check slist "undotted name" [ Lint.Rules.r_counter ] (rules_of r);
  let r =
    run [ ("lib/a.ml", "let c reg = Stats.Registry.counter reg \"family.metric\"\n") ] in
  Alcotest.check slist "conforming name" [] (rules_of r)

(* Series registration sites share R4's grammar, plus the "series." prefix
   the runtime enforces *)
let test_r4_series_prefix () =
  let r =
    run [ ("lib/a.ml", "let c sr = Stats.Series.counter sr \"queue.depth\"\n") ] in
  Alcotest.check slist "missing series. prefix" [ Lint.Rules.r_counter ] (rules_of r);
  let r =
    run
      [ ("lib/a.ml",
         "let g sr dc = Stats.Series.sample sr (Printf.sprintf \"series.pending.dc%d\" dc)\n") ]
  in
  Alcotest.check slist "prefixed sprintf shape passes" [] (rules_of r);
  let r = run [ ("lib/a.ml", "let h sr = Stats.Series.hist sr \"series.vis ms\"\n") ] in
  Alcotest.check slist "grammar still applies to series names" [ Lint.Rules.r_counter ]
    (rules_of r)

let test_r4_baseline_coverage () =
  let sources =
    [
      ( "lib/a.ml",
        {|let c reg k = Stats.Registry.counter reg ("span." ^ k ^ ".us")
let d reg dc = Stats.Registry.counter reg (Printf.sprintf "dc%d.updates_originated" dc)
|}
      );
    ]
  in
  let covered = "# comment line\nspan.label_walk.us\ndc0.updates_originated 12\n" in
  let r = run ~baseline:("ci/smoke-counters.txt", covered) sources in
  Alcotest.check slist "every baseline name covered by a glob" [] (rules_of r);
  let stale = "span.label_walk.us\nservice.requests\n" in
  let r = run ~baseline:("ci/smoke-counters.txt", stale) sources in
  Alcotest.check slist "uncovered baseline name reported" [ Lint.Rules.r_counter ] (rules_of r);
  let f = List.hd r.findings in
  Alcotest.(check int) "at the baseline line" 2 f.Lint.Rules.line

let test_r4_meta_bytes_grammar () =
  (* the Meta_bytes registration shape: per-system counters built with a
     sprintf literal must glob to meta.bytes.*.<metric> and cover the
     smoke baseline's per-system names *)
  let sources =
    [
      ( "lib/a.ml",
        {|let c reg system = Stats.Registry.counter reg (Printf.sprintf "meta.bytes.%s.attached" system)
let s reg system =
  Stats.Registry.counter reg (Printf.sprintf "meta.bytes.%s.stabilization" system)
|}
      );
    ]
  in
  let covered = "meta.bytes.saturn.attached 17\nmeta.bytes.okapi.stabilization 3\n" in
  let r = run ~baseline:("ci/smoke-counters.txt", covered) sources in
  Alcotest.check slist "meta.bytes baseline names covered" [] (rules_of r);
  let stale = "meta.bytes.saturn.heartbeat 12\n" in
  let r = run ~baseline:("ci/smoke-counters.txt", stale) sources in
  Alcotest.check slist "unregistered meta.bytes metric reported" [ Lint.Rules.r_counter ]
    (rules_of r)

let test_r4_blame_family () =
  (* the blame.* family: scalar aggregates registered with plain literals,
     per-part totals with a sprintf literal that must glob to
     blame.part.*.us and cover the smoke baseline's per-part names *)
  let sources =
    [
      ( "lib/a.ml",
        {|let j reg = Stats.Registry.counter reg "blame.journeys"
let g reg = Stats.Registry.counter reg "blame.gap.us"
let p reg name = Stats.Registry.counter reg (Printf.sprintf "blame.part.%s.us" name)
|}
      );
    ]
  in
  let covered =
    "blame.journeys 7811\nblame.gap.us 11374413\nblame.part.sink_hold.us 3823191\n\
     blame.part.transit_excess.us 0\n"
  in
  let r = run ~baseline:("ci/smoke-counters.txt", covered) sources in
  Alcotest.check slist "blame baseline names covered" [] (rules_of r);
  let stale = "blame.part.sink_hold.us 3823191\nblame.tail.us 12\n" in
  let r = run ~baseline:("ci/smoke-counters.txt", stale) sources in
  Alcotest.check slist "unregistered blame metric reported" [ Lint.Rules.r_counter ] (rules_of r)

let test_glob () =
  let m p s = Lint.Rules.matches ~pattern:p s in
  Alcotest.(check bool) "star spans" true (m "span.*.us" "span.label_walk.us");
  Alcotest.(check bool) "star can be empty" true (m "dc*.x" "dc.x");
  Alcotest.(check bool) "no match" false (m "span.*.us" "proxy.label_walk.us");
  Alcotest.(check bool) "literal" true (m "a.b" "a.b");
  Alcotest.(check bool) "suffix anchored" false (m "a.*" "b.a.c")

(* ---- R6: nondeterminism-taint --------------------------------------------- *)

let test_r6_chain_reaches_sink () =
  (* the PR 8 shape R2 could not see: an ambient source two let-bindings
     away from the probe trace *)
  let r =
    run
      [
        ( "lib/x.ml",
          {|let stamp probe ~at =
  let t0 = Unix.gettimeofday () in
  let skew = t0 *. 1e6 in
  Sim.Probe.custom probe ~at skew
|}
        );
      ]
  in
  Alcotest.(check int) "one taint finding" 1 (count_rule Lint.Rules.r_taint r);
  let f =
    List.find (fun (f : Lint.Rules.finding) -> f.rule = Lint.Rules.r_taint) r.findings
  in
  Alcotest.(check int) "reported at the sink line" 4 f.Lint.Rules.line

let test_r6_fold_taint_reaches_registry () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let record reg tbl =
  let ks = Hashtbl.fold (fun k _ a -> k :: a) tbl [] in
  Stats.Registry.incr_by (Stats.Registry.counter reg "x.keys") (List.length ks)
|}
        );
      ]
  in
  Alcotest.(check bool) "unproven fold taints its binding into the sink" true
    (has_rule Lint.Rules.r_taint r)

let test_r6_sort_kills_taint () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let record reg tbl =
  let ks = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl []) in
  Stats.Registry.incr_by (Stats.Registry.counter reg "x.keys") (List.length ks)
|}
        );
      ]
  in
  Alcotest.check slist "a canonicalizing sort ends the taint chain" [] (rules_of r)

let test_r6_no_sink_no_taint_finding () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|let skew () =
  let t0 = Unix.gettimeofday () in
  t0 *. 1e6
|}
        );
      ]
  in
  (* the ambient site itself is still an R2 finding, but with no sink in
     reach there is nothing for the taint pass to add *)
  Alcotest.(check int) "no taint finding" 0 (count_rule Lint.Rules.r_taint r);
  Alcotest.(check int) "source still flagged by R2" 1 (count_rule Lint.Rules.r_ambient r)

(* ---- R7: layer-boundary ---------------------------------------------------- *)

let test_layers =
  ( "ci/layers.txt",
    {|layer core = lib/core
layer sim = lib/simulator
deny core -> Unix.
deny sim -> layer:core
|} )

let test_dunes =
  [
    ("lib/core/dune", "(library (name saturn))");
    ("lib/simulator/dune", "(library (name sim))");
  ]

let test_r7_prefix_deny () =
  let r =
    run ~layers:test_layers ~dune_files:test_dunes
      [ ("lib/core/x.ml", "let home () = Unix.getenv \"HOME\"\n") ]
  in
  Alcotest.check slist "core may not reach Unix." [ Lint.Rules.r_layer ] (rules_of r)

let test_r7_layer_deny_both_edges () =
  (* sim reaching back into core is caught twice: the identifier chain in
     the source and the dune (libraries …) edge *)
  let r =
    run ~layers:test_layers
      ~dune_files:
        [
          ("lib/core/dune", "(library (name saturn))");
          ("lib/simulator/dune", "(library (name sim) (libraries saturn))");
        ]
      [ ("lib/simulator/s.ml", "let route l = Saturn.Label.compare l l\n") ]
  in
  Alcotest.(check int) "ident edge + dune edge" 2 (count_rule Lint.Rules.r_layer r)

let test_r7_alias_cannot_hide_edge () =
  let r =
    run ~layers:test_layers ~dune_files:test_dunes
      [
        ( "lib/simulator/s.ml",
          "module L = Saturn.Label\n\nlet route l = L.compare l l\n" );
      ]
  in
  Alcotest.(check bool) "module alias still counts as the edge" true
    (has_rule Lint.Rules.r_layer r)

let test_r7_allowed_direction_clean () =
  let r =
    run ~layers:test_layers ~dune_files:test_dunes
      [ ("lib/core/x.ml", "let at clock = Sim.Clock.now clock\n") ]
  in
  Alcotest.check slist "core -> sim has no deny edge" [] (rules_of r)

let test_r7_waiver_names_plan () =
  let r =
    run ~layers:test_layers ~dune_files:test_dunes
      [
        ( "lib/core/x.ml",
          {|(* lint: allow layer-boundary -- live-mode transport lands in PR 12 *)
let home () = Unix.getenv "HOME"
|}
        );
      ]
  in
  Alcotest.check slist "waiver with the plan silences R7" [] (rules_of r);
  Alcotest.(check int) "waiver used" 1 r.waivers_used

(* ---- R8: protocol-invariant ------------------------------------------------ *)

let test_r8_ship_missing_everything () =
  let r = run [ ("lib/core/x.ml", "let flush t links = Transport.ship links t.buf\n") ] in
  Alcotest.(check int) "size_bytes + Meta_bytes + epoch all missing" 3
    (count_rule Lint.Rules.r_proto r)

let test_r8_ship_fully_threaded () =
  let r =
    run
      [
        ( "lib/core/x.ml",
          {|let flush t links ~epoch =
  Stats.Meta_bytes.record t.meta ~bytes:(bytes t.buf);
  Transport.ship links t.buf ~size_bytes:(bytes t.buf) ~epoch
|}
        );
      ]
  in
  Alcotest.check slist "threaded ship site is clean" [] (rules_of r)

let test_r8_epoch_only_required_in_core () =
  let r =
    run
      [
        ( "lib/harness/x.ml",
          {|let flush t links =
  Stats.Meta_bytes.record t.meta ~bytes:64;
  Transport.ship links t.buf ~size_bytes:64
|}
        );
      ]
  in
  Alcotest.check slist "outside lib/core no epoch is demanded" [] (rules_of r)

let test_r8_fan_out_primitives () =
  (* a fan-out call site owes its epoch in lib/core but no Meta_bytes of
     its own; the fan-out's definition owes Meta_bytes but no epoch *)
  let r =
    run
      [
        ("lib/core/x.ml", "let beat t = Fabric.broadcast t.fabric ~src:0 ~size_bytes:12 t.msg\n");
        ( "lib/core/y.ml",
          "let broadcast t ~src ~size_bytes b = ship t ~src ~dst:1 ~size_bytes b\n" );
      ]
  in
  Alcotest.(check (list (pair string string)))
    "call site lacks its epoch, definition its accounting"
    [ ("lib/core/x.ml", "epoch"); ("lib/core/y.ml", "Meta_bytes") ]
    (List.sort compare
       (List.map
          (fun (f : Lint.Rules.finding) ->
            ( f.Lint.Rules.file,
              if Lint.Rules.matches ~pattern:"*epoch*" f.Lint.Rules.message then "epoch"
              else "Meta_bytes" ))
          (List.filter (fun (f : Lint.Rules.finding) -> f.Lint.Rules.rule = Lint.Rules.r_proto)
             r.findings)))

let test_r8_probe_constructor_needs_consumer () =
  let r =
    run
      [
        ("lib/simulator/probe.mli", "type t\nmodule Kind : sig type t = Ping | Pong end\n");
        ("lib/faults/checker.ml", "let score = function Kind.Ping -> 1 | _ -> 0\n");
      ]
  in
  Alcotest.(check int) "unconsumed constructor flagged" 1 (count_rule Lint.Rules.r_proto r);
  let f = List.hd r.findings in
  Alcotest.(check bool) "names the constructor" true
    (Lint.Rules.matches ~pattern:"*Pong*" f.Lint.Rules.message)

(* consumers match on the view's [Kind] constants: a kind matched through
   its full path is consumed, and a kind nobody matches still fires, once *)
let test_r8_view_kind_is_a_consumer () =
  let r =
    run
      [
        ("lib/simulator/probe.mli", "module Kind : sig type t = Ping | Pong end\n");
        ( "lib/faults/checker.ml",
          "let score (v : Sim.Probe.view) =\n\
           \  match v.kind with Sim.Probe.Kind.Ping -> 1 | _ -> 0\n" );
      ]
  in
  Alcotest.(check int) "only the unmatched kind flagged" 1 (count_rule Lint.Rules.r_proto r);
  let f = List.hd r.findings in
  Alcotest.(check bool) "names the constructor" true
    (Lint.Rules.matches ~pattern:"*Pong*" f.Lint.Rules.message)

(* ---- R9: dead-export ------------------------------------------------------- *)

let dead_export_sources =
  [
    ("lib/m.mli", "val used : int -> int\nval helper : int -> int\n");
    ("lib/m.ml", "let used x = x + 1\nlet helper x = x * 2\n");
    ("lib/caller.ml", "let y = M.used 1\n");
  ]

let test_r9_dead_mli_val () =
  let r = run dead_export_sources in
  Alcotest.(check int) "one dead export" 1 (count_rule Lint.Rules.r_dead r);
  let f = List.hd r.findings in
  Alcotest.(check string) "in the interface" "lib/m.mli" f.Lint.Rules.file;
  Alcotest.(check int) "the unreferenced val" 2 f.Lint.Rules.line

let test_r9_use_dir_keeps_alive () =
  let r =
    run ~use_sources:[ ("test/t.ml", "let _ = M.helper 2\n") ] dead_export_sources in
  Alcotest.check slist "a test-tree use keeps the export" [] (rules_of r)

let test_r9_alias_use_keeps_alive () =
  let r =
    run
      [
        ("lib/m.mli", "val helper : int -> int\n");
        ("lib/m.ml", "let helper x = x * 2\n");
        ("lib/caller.ml", "module Q = M\n\nlet y = Q.helper 1\n");
      ]
  in
  Alcotest.check slist "use through a module alias counts" [] (rules_of r)

let test_r9_submodule_val_path () =
  (* a record type before [module Json : sig] once made the submodule
     frame pop early and mis-path the val — regression guard *)
  let sources caller =
    [
      ( "lib/m.mli",
        {|type r = { a : int; b : string; }

module Json : sig
  val parse : string -> int
end
|} );
      ("lib/m.ml", "type r = { a : int; b : string }\n\nmodule Json = struct\n  let parse s = String.length s\nend\n");
      ("lib/caller.ml", caller);
    ]
  in
  let r = run (sources "let n = M.Json.parse \"x\"\n") in
  Alcotest.check slist "dotted submodule use is a reference" [] (rules_of r);
  let r = run (sources "let n = M.Json.member \"x\"\n") in
  Alcotest.(check int) "wrong member does not count" 1 (count_rule Lint.Rules.r_dead r)

let test_r9_hidden_unused_ml_value () =
  let r =
    run
      [
        ("lib/m.mli", "val used : int -> int\n");
        ("lib/m.ml", "let used x = x + 1\n\nlet orphan = 2\n");
        ("lib/caller.ml", "let y = M.used 1\n");
      ]
  in
  Alcotest.(check int) "hidden unused value flagged" 1 (count_rule Lint.Rules.r_dead r);
  let f = List.hd r.findings in
  Alcotest.(check string) "in the implementation" "lib/m.ml" f.Lint.Rules.file

let test_r9_hidden_but_used_internally_ok () =
  let r =
    run
      [
        ("lib/m.mli", "val used : int -> int\n");
        ("lib/m.ml", "let step = 3\n\nlet used x = x + step\n");
        ("lib/caller.ml", "let y = M.used 1\n");
      ]
  in
  Alcotest.check slist "internal use of a hidden value is fine" [] (rules_of r)

(* A module type's vals are requirements on its implementations, not
   exports of the interface that declares it; an interface that includes
   it exports them, and only them. *)
let module_type_sources ~impl =
  [
    ("lib/common.mli", "module type S = sig\n  type t\n\n  val name : string\nend\n");
    ("lib/common.ml", "module type S = sig\n  type t\n\n  val name : string\nend\n");
    ("lib/p.mli", "type t\n\ninclude Common.S with type t := t\n\nval make : unit -> t\n");
    ("lib/p.ml", impl);
    ("lib/caller.ml", "let t = P.make ()\n");
  ]

let test_r9_module_type_vals () =
  let r = run (module_type_sources ~impl:"type t = int\n\nlet name = \"p\"\nlet make () = 0\n") in
  Alcotest.check slist "module-type vals are required, and exported by the include" []
    (rules_of r);
  let r =
    run
      (module_type_sources
         ~impl:"type t = int\n\nlet name = \"p\"\nlet orphan = 2\nlet make () = 0\n")
  in
  Alcotest.(check int) "a value outside the included type is still hidden" 1
    (count_rule Lint.Rules.r_dead r);
  let f = List.hd r.findings in
  Alcotest.(check string) "in the implementation" "lib/p.ml" f.Lint.Rules.file

(* ---- waiver hygiene -------------------------------------------------------- *)

let test_unused_waiver () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|(* lint: allow physical-equality -- nothing below actually uses it *)
let same a b = a = b
|}
        );
      ]
  in
  Alcotest.check slist "stale waiver reported" [ Lint.Rules.r_unused_waiver ] (rules_of r);
  Alcotest.(check int) "not counted as used" 0 r.waivers_used

let test_bad_waiver () =
  let r =
    run [ ("lib/x.ml", "(* lint: allow no-such-rule -- why not *)\nlet x = 1\n") ] in
  Alcotest.check slist "unknown rule name" [ Lint.Rules.r_bad_waiver ] (rules_of r);
  let r = run [ ("lib/x.ml", "(* lint: allow physical-equality *)\nlet x = 1\n") ] in
  Alcotest.check slist "missing reason" [ Lint.Rules.r_bad_waiver ] (rules_of r)

let test_waiver_scope_is_two_lines () =
  let r =
    run
      [
        ( "lib/x.ml",
          {|(* lint: allow physical-equality -- only covers the next line *)
let near a b = a == b
let far a b = a == b
|}
        );
      ]
  in
  Alcotest.check slist "third line not covered" [ Lint.Rules.r_physeq ] (rules_of r);
  let f = List.hd r.findings in
  Alcotest.(check int) "finding is the far site" 3 f.Lint.Rules.line

let waived_source =
  {|(* lint: allow physical-equality -- intentional identity check *)
let same a b = a == b
|}

let test_waiver_ratchet () =
  let r = run [ ("lib/x.ml", waived_source) ] in
  let inv = Lint.Report.to_waivers_txt r in
  (match Lint.Report.check_waivers r ~inventory:inv with
  | Ok () -> ()
  | Error es -> Alcotest.failf "own inventory rejected: %s" (String.concat "; " es));
  (* a waiver the inventory does not list is a ratchet error: adding one
     requires a deliberate ci/regen.sh --lint-baseline refresh *)
  (match Lint.Report.check_waivers r ~inventory:"" with
  | Ok () -> Alcotest.fail "new waiver slipped past the ratchet"
  | Error _ -> ());
  (* an inventory line whose waiver is gone must also fail, so deletions
     shrink the checked-in inventory in the same commit *)
  let gone = run [ ("lib/x.ml", "let same a b = a = b\n") ] in
  match Lint.Report.check_waivers gone ~inventory:inv with
  | Ok () -> Alcotest.fail "stale inventory line accepted"
  | Error _ -> ()

(* ---- report shapes --------------------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_shape () =
  let r = run [ ("lib/x.ml", "let same a b = a == b\n") ] in
  let json = Lint.Report.to_json r in
  Alcotest.(check bool) "version tag" true (contains json "\"version\":2");
  Alcotest.(check bool) "per-rule counts" true (contains json "\"by_rule\"");
  Alcotest.(check bool) "rule name" true (contains json "\"physical-equality\"");
  Alcotest.(check bool) "file name" true (contains json "\"lib/x.ml\"")

let test_by_rule_counts () =
  let r =
    run
      [
        ("lib/x.ml", "let a x y = x == y\n\nlet b x y = x != y\n");
        ("lib/y.ml", "let now () = Unix.gettimeofday ()\n");
      ]
  in
  let by = Lint.Report.by_rule r in
  Alcotest.(check int) "all rules listed" (List.length Lint.Rules.all_rules) (List.length by);
  Alcotest.(check (option int)) "two physeq" (Some 2)
    (List.assoc_opt Lint.Rules.r_physeq by);
  Alcotest.(check (option int)) "one ambient" (Some 1)
    (List.assoc_opt Lint.Rules.r_ambient by);
  Alcotest.(check (option int)) "zeros included" (Some 0)
    (List.assoc_opt Lint.Rules.r_span by)

let test_table_and_summary () =
  let r = run [ ("lib/x.ml", "let same a b = a == b\n") ] in
  let table = Lint.Report.to_table r in
  Alcotest.(check bool) "table names the file" true (contains table "lib/x.ml");
  let md = Lint.Report.to_summary_md r in
  Alcotest.(check bool) "summary has the rule" true (contains md "physical-equality");
  Alcotest.(check bool) "summary has the site" true (contains md "lib/x.ml")

(* Property: a waived finding never reaches the JSON report, whatever mix
   of waived and unwaived sites a file holds. Each generated file is a
   run of [let fN a b = a == b] lines, each independently waived or not. *)
let prop_waived_never_in_json =
  QCheck.Test.make ~count:100 ~name:"waived findings never reach the JSON report"
    QCheck.(list_of_size Gen.(1 -- 8) bool)
    (fun waived ->
      let buf = Buffer.create 256 in
      let line = ref 1 in
      let waived_lines = ref [] in
      List.iteri
        (fun i w ->
          if w then begin
            Buffer.add_string buf "(* lint: allow physical-equality -- generated *)\n";
            incr line;
            waived_lines := !line :: !waived_lines
          end;
          Buffer.add_string buf (Printf.sprintf "let f%d a b = a == b\n" i);
          incr line)
        waived;
      let r = run [ ("lib/x.ml", Buffer.contents buf) ] in
      let json = Lint.Report.to_json r in
      let n_waived = List.length (List.filter (fun w -> w) waived) in
      let n_live = List.length waived - n_waived in
      List.length r.findings = n_live
      && r.waivers_used = n_waived
      && List.assoc_opt Lint.Rules.r_physeq (Lint.Report.by_rule r) = Some n_live
      && List.for_all
           (fun (f : Lint.Rules.finding) -> not (List.mem f.line !waived_lines))
           r.findings
      && contains json
           (Printf.sprintf {|"waivers":{"total":%d,"used":%d}|} n_waived n_waived))

(* ---- the checked-in fixtures ----------------------------------------------- *)

(* [test/lint_fixtures/<rule>.ml] is both documentation (--explain prints
   it) and executable spec: the --bad-- section must fire the rule, the
   --good-- section must not. [(* @file path *)] directives split a
   section into a virtual tree for the path-sensitive rules. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_fixture src =
  let bad = ref [] and good = ref [] in
  let section = ref `Header in
  let file = ref "lib/fixture.ml" in
  let buf = Buffer.create 256 in
  let flush_into dst =
    if Buffer.length buf > 0 then begin
      dst := (!file, Buffer.contents buf) :: !dst;
      Buffer.clear buf
    end
  in
  let flush () =
    match !section with `Header -> Buffer.clear buf | `Bad -> flush_into bad | `Good -> flush_into good
  in
  List.iter
    (fun line ->
      let t = String.trim line in
      if t = "(* --bad-- *)" then begin
        flush ();
        section := `Bad;
        file := "lib/fixture.ml"
      end
      else if t = "(* --good-- *)" then begin
        flush ();
        section := `Good;
        file := "lib/fixture.ml"
      end
      else if String.length t > 12 && String.sub t 0 9 = "(* @file " then begin
        flush ();
        file := String.trim (String.sub t 9 (String.length t - 9 - 2))
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' src);
  flush ();
  (List.rev !bad, List.rev !good)

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let fixture_layers root =
  let path = Filename.concat root "ci/layers.txt" in
  if Sys.file_exists path then Some ("ci/layers.txt", read_file path) else None

let test_fixture rule () =
  let root =
    match find_root () with
    | Some r -> r
    | None -> Alcotest.fail "cannot locate dune-project above the test cwd"
  in
  let path = Filename.concat root (Filename.concat "test/lint_fixtures" (rule ^ ".ml")) in
  let bad, good = parse_fixture (read_file path) in
  Alcotest.(check bool) "fixture has a bad section" true (bad <> []);
  Alcotest.(check bool) "fixture has a good section" true (good <> []);
  let layers = fixture_layers root in
  let run_section srcs = Lint.Engine.run_sources ?layers srcs in
  let r = run_section bad in
  Alcotest.(check bool)
    (Printf.sprintf "--bad-- fires %s" rule)
    true (has_rule rule r);
  let r = run_section good in
  Alcotest.(check int)
    (Printf.sprintf "--good-- is clean of %s" rule)
    0 (count_rule rule r)

let test_fixture_unordered_per_file () =
  (* the unordered-iteration fixture's --bad-- section holds one file per
     kind of table (Hashtbl, a Hashtbl.Make instance): each must fire on
     its own, so neither example rides on the other *)
  match find_root () with
  | None -> Alcotest.fail "cannot locate dune-project above the test cwd"
  | Some root ->
    let path = Filename.concat root "test/lint_fixtures/unordered-iteration.ml" in
    let bad, _ = parse_fixture (read_file path) in
    Alcotest.(check int) "two bad files" 2 (List.length bad);
    List.iter
      (fun (file, src) ->
        let r = run [ (file, src) ] in
        Alcotest.(check bool) (file ^ " fires on its own") true (has_rule Lint.Rules.r_unordered r))
      bad

(* ---- the real tree --------------------------------------------------------- *)

let test_real_tree_clean () =
  match find_root () with
  | None -> Alcotest.fail "cannot locate dune-project above the test cwd"
  | Some root ->
    let r =
      Lint.Engine.run ~use_dirs:[ "test"; "bench"; "examples" ] ~root
        ~dirs:[ "lib"; "bin" ] ()
    in
    List.iter
      (fun (f : Lint.Rules.finding) ->
        Printf.eprintf "lint: %s:%d [%s] %s\n" f.file f.line f.rule f.message)
      r.findings;
    Alcotest.(check int) "zero findings on lib/ + bin/" 0 (List.length r.findings);
    Alcotest.(check bool) "scanned a real tree" true (r.files_scanned > 50);
    Alcotest.(check int) "no stale waivers" r.waivers_total r.waivers_used;
    (* one facts probe through the single-file entry point the CLI shares *)
    let facts, _, bad = Lint.Engine.scan_source ~file:"lib/x.ml" "let a b c = b == c\n" in
    Alcotest.(check int) "scan_source sees the site" 1 (List.length facts.Lint.Rules.ff_findings);
    Alcotest.(check int) "no bad waivers" 0 (List.length bad)

let suite =
  [
    Alcotest.test_case "R1 fires on bare Hashtbl.iter" `Quick test_r1_fires;
    Alcotest.test_case "R1 sorted in same expression" `Quick test_r1_sorted_same_expression;
    Alcotest.test_case "R1 binding sorted a statement later is safe" `Quick
      test_r1_binding_sorted_later_ok;
    Alcotest.test_case "R1 binding read unsorted still fires" `Quick
      test_r1_binding_read_unsorted_fires;
    Alcotest.test_case "R1 commutative fold is safe" `Quick test_r1_commutative_fold_ok;
    Alcotest.test_case "R1 non-commutative fold fires" `Quick test_r1_noncommutative_fold_fires;
    Alcotest.test_case "R1 pipeline sort" `Quick test_r1_pipeline_sort_ok;
    Alcotest.test_case "R1 waiver" `Quick test_r1_waiver;
    Alcotest.test_case "R1 Hashtbl.Make instances" `Quick test_r1_functor_instance;
    Alcotest.test_case "R2 fires on ambient sources" `Quick test_r2_fires;
    Alcotest.test_case "R2 allows seeded Random.State" `Quick test_r2_seeded_state_ok;
    Alcotest.test_case "R5 fires and waives" `Quick test_r5_fires_and_waives;
    Alcotest.test_case "R5 ignores strings and chars" `Quick test_r5_not_confused_by_strings;
    Alcotest.test_case "R3 unbalanced span" `Quick test_r3_unbalanced;
    Alcotest.test_case "R3 pairs across files" `Quick test_r3_paired_across_files;
    Alcotest.test_case "R3 unresolved kind" `Quick test_r3_unresolved_kind;
    Alcotest.test_case "R3 helper segment fallback" `Quick test_r3_helper_segment_fallback;
    Alcotest.test_case "R4 name grammar" `Quick test_r4_grammar;
    Alcotest.test_case "R4 series name prefix" `Quick test_r4_series_prefix;
    Alcotest.test_case "R4 baseline coverage" `Quick test_r4_baseline_coverage;
    Alcotest.test_case "R4 meta.bytes grammar" `Quick test_r4_meta_bytes_grammar;
    Alcotest.test_case "R4 blame family" `Quick test_r4_blame_family;
    Alcotest.test_case "glob matcher" `Quick test_glob;
    Alcotest.test_case "R6 chain reaches sink" `Quick test_r6_chain_reaches_sink;
    Alcotest.test_case "R6 fold taint reaches registry" `Quick
      test_r6_fold_taint_reaches_registry;
    Alcotest.test_case "R6 sort kills taint" `Quick test_r6_sort_kills_taint;
    Alcotest.test_case "R6 no sink, no finding" `Quick test_r6_no_sink_no_taint_finding;
    Alcotest.test_case "R7 prefix deny" `Quick test_r7_prefix_deny;
    Alcotest.test_case "R7 layer deny: ident + dune edges" `Quick
      test_r7_layer_deny_both_edges;
    Alcotest.test_case "R7 alias cannot hide the edge" `Quick test_r7_alias_cannot_hide_edge;
    Alcotest.test_case "R7 allowed direction is clean" `Quick test_r7_allowed_direction_clean;
    Alcotest.test_case "R7 waiver names the plan" `Quick test_r7_waiver_names_plan;
    Alcotest.test_case "R8 ship missing everything" `Quick test_r8_ship_missing_everything;
    Alcotest.test_case "R8 fully threaded ship" `Quick test_r8_ship_fully_threaded;
    Alcotest.test_case "R8 fan-out primitives" `Quick test_r8_fan_out_primitives;
    Alcotest.test_case "R8 epoch only required in core" `Quick
      test_r8_epoch_only_required_in_core;
    Alcotest.test_case "R8 view kind is a consumer" `Quick test_r8_view_kind_is_a_consumer;
    Alcotest.test_case "R8 probe constructor needs consumer" `Quick
      test_r8_probe_constructor_needs_consumer;
    Alcotest.test_case "R9 dead mli val" `Quick test_r9_dead_mli_val;
    Alcotest.test_case "R9 use dir keeps alive" `Quick test_r9_use_dir_keeps_alive;
    Alcotest.test_case "R9 alias use keeps alive" `Quick test_r9_alias_use_keeps_alive;
    Alcotest.test_case "R9 submodule val path" `Quick test_r9_submodule_val_path;
    Alcotest.test_case "R9 hidden unused ml value" `Quick test_r9_hidden_unused_ml_value;
    Alcotest.test_case "R9 hidden but used internally" `Quick
      test_r9_hidden_but_used_internally_ok;
    Alcotest.test_case "R9 module type vals" `Quick test_r9_module_type_vals;
    Alcotest.test_case "unused waiver reported" `Quick test_unused_waiver;
    Alcotest.test_case "bad waiver reported" `Quick test_bad_waiver;
    Alcotest.test_case "waiver covers two lines only" `Quick test_waiver_scope_is_two_lines;
    Alcotest.test_case "waiver ratchet" `Quick test_waiver_ratchet;
    Alcotest.test_case "JSON report shape" `Quick test_json_shape;
    Alcotest.test_case "per-rule counts" `Quick test_by_rule_counts;
    Alcotest.test_case "table and step summary" `Quick test_table_and_summary;
    QCheck_alcotest.to_alcotest prop_waived_never_in_json;
    Alcotest.test_case "fixture: unordered-iteration" `Quick
      (test_fixture "unordered-iteration");
    Alcotest.test_case "fixture: unordered-iteration per file" `Quick
      test_fixture_unordered_per_file;
    Alcotest.test_case "fixture: ambient-nondeterminism" `Quick
      (test_fixture "ambient-nondeterminism");
    Alcotest.test_case "fixture: span-pairing" `Quick (test_fixture "span-pairing");
    Alcotest.test_case "fixture: counter-name-grammar" `Quick
      (test_fixture "counter-name-grammar");
    Alcotest.test_case "fixture: physical-equality" `Quick (test_fixture "physical-equality");
    Alcotest.test_case "fixture: nondeterminism-taint" `Quick
      (test_fixture "nondeterminism-taint");
    Alcotest.test_case "fixture: layer-boundary" `Quick (test_fixture "layer-boundary");
    Alcotest.test_case "fixture: protocol-invariant" `Quick
      (test_fixture "protocol-invariant");
    Alcotest.test_case "fixture: dead-export" `Quick (test_fixture "dead-export");
    Alcotest.test_case "real lib/ + bin/ tree is clean" `Quick test_real_tree_clean;
  ]
