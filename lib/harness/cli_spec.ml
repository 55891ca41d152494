type sub = { name : string; summary : string }

let subs =
  [
    { name = "matrix"; summary = "print the inter-region latency matrix (the paper's Table 1)" };
    { name = "plan"; summary = "plan a serializer tree for a set of regions (Algorithm 3)" };
    { name = "bench"; summary = "run a comparative synthetic workload (the Figure 5/7 harness)" };
    {
      name = "bench-check";
      summary = "gate a fresh engine-bench JSON against the checked-in baseline";
    };
    { name = "social"; summary = "run the Facebook-like benchmark (§7.4)" };
    { name = "trace"; summary = "record / replay operation traces" };
    { name = "obs"; summary = "observability smoke run: registry table, deterministic trace, artifacts" };
    { name = "faults"; summary = "fault-injection scenario matrix with invariant checking" };
    { name = "series"; summary = "windowed telemetry timelines (queue depths, recovery points)" };
    {
      name = "blame";
      summary = "per-journey optimality-gap attribution, culprit ranking, top-K critical paths";
    };
    { name = "diff"; summary = "localize the first divergence between two runs' artifacts" };
    {
      name = "gate";
      summary = "run every gated scenario once, write a manifest, compare the checked-in baselines";
    };
  ]

let names = List.map (fun s -> s.name) subs

let summary name =
  match List.find_opt (fun s -> String.equal s.name name) subs with
  | Some s -> s.summary
  | None -> invalid_arg ("Cli_spec.summary: unknown subcommand " ^ name)

let usage () =
  let w = List.fold_left (fun acc s -> Stdlib.max acc (String.length s.name)) 0 subs in
  String.concat "\n"
    (List.map (fun s -> Printf.sprintf "  %-*s  %s" w s.name s.summary) subs)
