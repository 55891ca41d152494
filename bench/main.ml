(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7), plus microbenchmarks and design ablations.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5a fig7   # a subset (ids below)
     dune exec bench/main.exe -- --csv out .. # also write CSV artifacts  *)

let experiments =
  [
    ("table1", "Table 1: EC2 latency matrix", Exp_table1.run);
    ("fig1a", "Figure 1a: throughput/freshness tradeoff (3-7 DCs)", Exp_fig1.run_a);
    ("fig1b", "Figure 1b: partial geo-replication problem", Exp_fig1.run_b);
    ("fig4", "Figure 4: Saturn configuration matters", Exp_fig4.run);
    ("fig5a", "Figure 5a: throughput vs value size", Exp_fig5.run_value_size);
    ("fig5b", "Figure 5b: throughput vs R:W ratio", Exp_fig5.run_rw_ratio);
    ("fig5c", "Figure 5c: throughput vs correlation", Exp_fig5.run_correlation);
    ("fig5d", "Figure 5d: throughput vs remote reads", Exp_fig5.run_remote_reads);
    ("fig6", "Figure 6: latency variability", Exp_fig6.run);
    ("fig7", "Figure 7: visibility vs state of the art", Exp_fig7.run);
    ("fig8a", "Figure 8a: Facebook benchmark throughput", Exp_fig8.run_a);
    ("fig8b", "Figure 8b: Facebook benchmark visibility", Exp_fig8.run_b);
    ("table2", "Table 2: systems classification + COPS metadata growth", Exp_table2.run);
    ( "shootout",
      "Stabilization shootout: metadata bytes/op of all eight systems (BENCH_shootout.json)",
      fun () -> Harness.Shootout.print (List.map Harness.Shootout.run_system Harness.Shootout.systems) );
    ("faults", "Fault injection: crash / partition / latency-spike matrix", Exp_faults.run);
    ("ablation", "Design ablations (delays, migration labels, chains)", Exp_ablation.run);
    ("sensitivity", "Sensitivity: partial-replication traffic, stabilization/sink periods", Exp_sensitivity.run);
    ("micro", "Bechamel microbenchmarks", Micro.run);
  ]

(* dune exec bench/main.exe -- engine [--tiers 61k,250k,1m] [--seed N] [--out FILE]
   Raw engine speed per scale tier: graph generation, op streaming and a
   fixed simulation, reported as deterministic counts/words plus advisory
   wall-clock rates (BENCH_engine.json; gated by saturn-cli bench-check). *)
let engine_cmd rest =
  let seed = ref 42 and out = ref None and tiers = ref Workload.Scale.tiers in
  let rec parse = function
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n -> seed := n
      | None ->
        Printf.eprintf "engine: --seed expects an integer, got %S\n" n;
        exit 2);
      parse rest
    | "--tiers" :: spec :: rest ->
      tiers :=
        List.map
          (fun name ->
            match Workload.Scale.tier_of_name name with
            | Some t -> t
            | None ->
              Printf.eprintf "engine: unknown tier %S (expected 61k / 250k / 1m)\n" name;
              exit 2)
          (String.split_on_char ',' spec);
      parse rest
    | "--out" :: path :: rest ->
      out := Some path;
      parse rest
    | [] -> ()
    | x :: _ ->
      Printf.eprintf
        "engine: unknown argument %S (expected --tiers LIST / --seed N / --out FILE)\n" x;
      exit 2
  in
  parse rest;
  let results =
    List.map
      (fun tier ->
        Printf.printf "engine: tier %s (%d users)...%!" (Workload.Scale.tier_name tier)
          (Workload.Scale.tier_users tier);
        let r = Harness.Engine_bench.run_tier ~now_s:Unix.gettimeofday ~seed:!seed tier in
        Printf.printf
          " %d edges, gen %.0f ms (%.1f w/edge, keeps %.2f w/edge), stream %.0f kops/s (%.1f w/op), sim %d ops / %d events (%.0f ev/s, %.1f w/op)\n%!"
          r.Harness.Engine_bench.edges r.gen_ms r.gen_words_per_edge r.graph_words_per_edge
          r.stream_kops_per_s
          r.stream_words_per_op r.sim_ops r.sim_events r.sim_events_per_s r.sim_words_per_op;
        r)
      !tiers
  in
  match !out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Harness.Engine_bench.to_json ~seed:!seed results);
    close_out oc;
    Printf.printf "wrote %s\n" path

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "engine" :: rest -> engine_cmd rest
  | args ->
  (* --csv DIR: additionally write every printed table as a CSV artifact *)
  let rec extract_csv acc = function
    | "--csv" :: dir :: rest ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Util.csv_dir := Some dir;
      extract_csv acc rest
    | x :: rest -> extract_csv (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_csv [] args in
  let wall = Unix.gettimeofday () in
  let selected =
    match args with
    | [] | [ "all" ] -> experiments
    | ids ->
      List.iter
        (fun id ->
          if not (List.exists (fun (eid, _, _) -> eid = id) experiments) then begin
            Printf.eprintf "unknown experiment %S; available:\n" id;
            List.iter (fun (eid, desc, _) -> Printf.eprintf "  %-8s %s\n" eid desc) experiments;
            exit 2
          end)
        ids;
      List.filter (fun (eid, _, _) -> List.mem eid ids) experiments
  in
  Printf.printf "Saturn reproduction benchmark harness — %d experiment(s)\n%!" (List.length selected);
  List.iter
    (fun (id, _, run) ->
      let t0 = Unix.gettimeofday () in
      Util.current_section := id;
      (* count-only probe around every experiment: the flame table below
         shows which subsystems the run actually exercised *)
      let probe = Sim.Probe.create ~keep:false () in
      Sim.Probe.with_probe probe run;
      Util.flame_table ~span_us:(Sim.Probe.span_totals_us probe) (Sim.Probe.counts_by_kind probe);
      Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t0))
    selected;
  Printf.printf "\nTotal wall time: %.1fs\n" (Unix.gettimeofday () -. wall)
