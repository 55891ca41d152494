(* Shared helpers for the benchmark experiments. *)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* when --csv DIR is given, every printed table is also written as a CSV
   artifact named after its section and title *)
let csv_dir : string option ref = ref None
let current_section = ref "misc"
let table_counter = ref 0

let slug s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '-')
    (String.lowercase_ascii s)

let print_table table =
  Stats.Table.print table;
  match !csv_dir with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let name =
      Printf.sprintf "%s-%02d-%s.csv" (slug !current_section) !table_counter
        (slug (Stats.Table.title table))
    in
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc (Stats.Table.to_csv table);
    close_out oc

(* Percentiles used when printing a CDF as rows. *)
let cdf_points = [ 10.; 25.; 50.; 75.; 90.; 95.; 99. ]

let cdf_row label sample =
  if Stats.Sample.is_empty sample then label :: List.map (fun _ -> "-") cdf_points
  else
    label
    :: List.map (fun p -> Printf.sprintf "%.1f" (Stats.Sample.percentile sample p)) cdf_points

let cdf_columns = "latency ms at CDF" :: List.map (fun p -> Printf.sprintf "p%.0f" p) cdf_points

let pct_vs baseline v = if baseline = 0. then 0. else (v -. baseline) /. baseline *. 100.

(* per-subsystem "flame" table: probe event counts by kind, with a bar
   proportional to each kind's share — a quick where-does-the-time-go view
   printed after every experiment. When [span_us] (plain-kind-keyed
   matched-span totals from [Sim.Probe.span_totals_us]) is given, the
   "span.*" count rows also get simulated-time columns with their own
   share bars — events say how often, spans say how long. *)
let flame_table ?(span_us = []) counts =
  match List.filter (fun (_, n) -> n > 0) counts with
  | [] -> ()
  | counts ->
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
    let widest = List.fold_left (fun acc (_, n) -> max acc n) 0 counts in
    let time_total = List.fold_left (fun acc (_, us) -> acc + us) 0 span_us in
    let widest_us = List.fold_left (fun acc (_, us) -> max acc us) 0 span_us in
    let span_of kind =
      (* count rows name span kinds "span.<kind>"; the time list keys them plain *)
      if String.length kind > 5 && String.sub kind 0 5 = "span." then
        List.assoc_opt (String.sub kind 5 (String.length kind - 5)) span_us
      else None
    in
    let columns =
      [ "kind"; "events"; "share"; "" ]
      @ (if span_us = [] then [] else [ "span ms"; "time"; "" ])
    in
    let table = Stats.Table.create ~title:"probe flame (events by kind)" ~columns in
    List.iter
      (fun (kind, n) ->
        let bar = String.make (max 1 (n * 24 / widest)) '#' in
        let time_cells =
          if span_us = [] then []
          else
            match span_of kind with
            | Some us when time_total > 0 ->
              [
                Printf.sprintf "%.1f" (float_of_int us /. 1000.);
                Printf.sprintf "%.1f%%" (100. *. float_of_int us /. float_of_int time_total);
                String.make (max 1 (us * 24 / max 1 widest_us)) '#';
              ]
            | _ -> [ "-"; "-"; "" ]
        in
        Stats.Table.add_row table
          ([
             kind;
             string_of_int n;
             Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int total);
             bar;
           ]
          @ time_cells))
      (List.sort (fun (_, a) (_, b) -> compare b a) counts);
    print_table table

(* quick scenario variants used across experiments: short, stable windows *)
let quick_setup =
  { Harness.Scenario.default_setup with
    Harness.Scenario.measure = Sim.Time.of_sec 1.0;
    warmup = Sim.Time.of_ms 400;
    cooldown = Sim.Time.of_ms 200;
  }

let outcome_row (o : Harness.Scenario.outcome) ~tput_baseline ~vis_baseline =
  [
    Harness.Build.label o.Harness.Scenario.system;
    Printf.sprintf "%.0f" o.Harness.Scenario.throughput;
    Printf.sprintf "%+.1f%%" (pct_vs tput_baseline o.Harness.Scenario.throughput);
    Printf.sprintf "%.1f" o.Harness.Scenario.mean_visibility_ms;
    Printf.sprintf "%.1f" o.Harness.Scenario.extra_visibility_ms;
    Printf.sprintf "%+.1f%%" (pct_vs vis_baseline o.Harness.Scenario.mean_visibility_ms);
  ]

let outcome_columns =
  [ "system"; "ops/s"; "tput vs eventual"; "visibility ms"; "extra ms"; "staleness vs eventual" ]
