(* Figure 5: dynamic-workload throughput experiments. Four sweeps, each
   varying one knob with the others at the paper's defaults (2 B values,
   9:1 reads:writes, exponential correlation, 0% remote reads). *)

open Harness

let throughput_table ~title ~param_name points run_point =
  let columns = param_name :: List.map Build.label Scenario.all_systems in
  let table = Stats.Table.create ~title ~columns in
  List.iter
    (fun (label, setup) ->
      let row =
        List.map
          (fun sys -> Printf.sprintf "%.0f" (run_point sys setup).Scenario.throughput)
          Scenario.all_systems
      in
      Stats.Table.add_row table (label :: row))
    points;
  Util.print_table table

let run_value_size () =
  Util.section "Figure 5a: throughput vs value size (bytes)";
  throughput_table ~title:"ops/s" ~param_name:"bytes"
    (List.map
       (fun size ->
         (string_of_int size, { Util.quick_setup with Scenario.value_size = size }))
       [ 8; 32; 128; 512; 2048 ])
    Scenario.run

let run_rw_ratio () =
  Util.section "Figure 5b: throughput vs read:write ratio";
  throughput_table ~title:"ops/s" ~param_name:"R:W"
    (List.map
       (fun (label, r) -> (label, { Util.quick_setup with Scenario.read_ratio = r }))
       [ ("50:50", 0.5); ("75:25", 0.75); ("90:10", 0.9); ("99:1", 0.99) ])
    Scenario.run

let run_correlation () =
  Util.section "Figure 5c: throughput vs correlation distribution";
  throughput_table ~title:"ops/s" ~param_name:"correlation"
    (List.map
       (fun c ->
         ( Format.asprintf "%a" Workload.Keyspace.pp_correlation c,
           { Util.quick_setup with Scenario.correlation = c } ))
       [
         Workload.Keyspace.Exponential;
         Workload.Keyspace.Proportional;
         Workload.Keyspace.Uniform 4;
         Workload.Keyspace.Full;
       ])
    Scenario.run

let run_remote_reads () =
  Util.section "Figure 5d: throughput vs percentage of remote reads";
  (* remote reads block clients for WAN round trips, so the client pool is
     scaled with the remote ratio to keep the system near its capacity, as
     in the paper ("as many clients as necessary"); a hot keyspace keeps
     client dependency timestamps fresh, which is what makes the attach
     stabilization of GentleRain and Cure bite *)
  throughput_table ~title:"ops/s" ~param_name:"remote %"
    (List.map
       (fun (pct, clients) ->
         ( string_of_int pct,
           { Util.quick_setup with
             Scenario.remote_read_ratio = float_of_int pct /. 100.;
             n_keys = 140;
             clients_per_dc = clients;
           } ))
       [ (0, 40); (5, 400); (10, 700); (20, 1100); (40, 1500) ])
    Scenario.run

let run () =
  run_value_size ();
  run_rw_ratio ();
  run_correlation ();
  run_remote_reads ()
