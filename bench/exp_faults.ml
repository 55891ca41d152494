(* Fault injection: the §6 failure-model scenario matrix.

   Runs the fixed-seed matrix — serializer head crash mid-stream, transient
   metadata-tree partition, latency spike on the tree's busiest edge, and
   the reconfiguration rows — prints Fault_run's results table (visibility
   degradation, recovery time, checker verdicts, combined digest), then the
   matrix's probe flame. *)

let run () =
  Util.section "Fault injection (§6 failure model)";
  let outcomes = Harness.Fault_run.run_matrix ~seed:42 () in
  print_string (Harness.Fault_run.render outcomes);
  (* the matrix runs under its own probes; aggregate their flames here *)
  let merge pick =
    let merged = Hashtbl.create 16 in
    List.iter
      (fun (o : Harness.Fault_run.outcome) ->
        List.iter
          (fun (k, n) ->
            Hashtbl.replace merged k (n + Option.value ~default:0 (Hashtbl.find_opt merged k)))
          (pick o.Harness.Fault_run.probe))
      outcomes;
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) merged [])
  in
  Util.flame_table ~span_us:(merge Sim.Probe.span_totals_us) (merge Sim.Probe.counts_by_kind);
  let v = Harness.Fault_run.violations outcomes in
  if v > 0 then Util.note "WARNING: %d invariant violation(s)" v
