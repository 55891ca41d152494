(* perf.exe -- the repo benchmark (see README.md beside this file).

     perf.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
         one run of one workload; the last line of stdout is the result JSON
         (end-to-end metrics with --trace 0, per-layer metrics with --trace 1,
         which with --out also writes DIR/W.trace.json and DIR/W.layers.json)
     perf.exe run [--seed 42] [--reps 5] --out FILE
         every workload in its own child process for BENCHMARK.json's
         run_seconds, one at a time, repetitions interleaved across
         workloads; prints median, quartiles and n
     perf.exe run --trace [--seed 42] --out DIR
         the traced run of every workload: DIR/<workload>.trace.json and
         DIR/layers.json
     perf.exe compare BASE NEW [--intended METRIC,...]
         applies BENCHMARK.json's bounds to two run documents; exits 1 on a
         regression, or, at the same seed, on any change to a
         deterministic metric that --intended does not name

   run and compare read BENCHMARK.json from the working directory, the
   repository root.

   Every sweep runs in a fresh child process that sets the workload up
   itself, so each starts from the same heap and each set-up is timed from
   the spawn. Children run one at a time and are single-threaded. *)

open Perfbench

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perf: " ^ m);
      exit 2)
    fmt

let workload_named name =
  match Workloads.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (expected %s)" name
      (String.concat ", " (List.map (fun w -> w.Workloads.name) (Workloads.all ())))

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" flag v

(* ---- child processes ------------------------------------------------------------ *)

(* runs this executable with [args] and waits for it; returns the host
   clock just before the spawn, the exit status and everything the child
   wrote to stdout (stderr passes through) *)
let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Hostspan.now_ns () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (t0, status, out)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let peak_rss_mb () =
  In_channel.with_open_bin "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ---- one sweep, in its own process ------------------------------------------------ *)

(* what a sweep child sends back, marshalled on its stdout *)
type report = {
  ready_ns : int;  (** host clock once set-up was done *)
  calib_ns : int;  (** host time of the reference timed before set-up, which is not set-up *)
  setup_ref_s : float;  (** the reference's mean time before and after set-up *)
  digest : string;
  setup_layers : (string * float) list;
  build_s : float;
  sweep : Workloads.sweep;
  rss_mb : float;
  top_heap_mb : float;
  spans : Hostspan.agg list;  (** the spans pass only *)
}

let modes = [ "plain"; "spans"; "counted" ]

let sweep_child w ~seed ~mode ~out =
  let c0 = Calib.checkpoint () in
  let tr = if mode = "spans" then Some (Hostspan.create ()) else None in
  let p =
    match tr with
    | Some tr -> Hostspan.span tr "setup" (fun () -> w.Workloads.prepare ~seed (Some tr))
    | None -> w.Workloads.prepare ~seed None
  in
  let staged =
    p.Workloads.stage
      (match tr with
      | Some tr -> Workloads.Spans tr
      | None -> if mode = "counted" then Workloads.Counted else Workloads.Plain)
  in
  let c1 = Calib.checkpoint () in
  let sweep =
    match tr with Some tr -> Hostspan.span tr "sweep" staged.Workloads.run | None -> staged.Workloads.run ()
  in
  (match (tr, out) with
  | Some tr, Some dir ->
    Out_channel.with_open_bin
      (Filename.concat dir (w.Workloads.name ^ ".trace.json"))
      (fun oc -> output_string oc (Hostspan.chrome_json tr ~process:("perf " ^ w.Workloads.name)))
  | _ -> ());
  let report =
    {
      ready_ns = c1.Calib.before_ns;
      calib_ns = c0.Calib.after_ns - c0.Calib.before_ns;
      setup_ref_s = (c0.Calib.ref_s +. c1.Calib.ref_s) /. 2.;
      digest = p.Workloads.digest;
      setup_layers = p.Workloads.setup_layers;
      build_s = staged.Workloads.build_s;
      sweep;
      rss_mb = peak_rss_mb ();
      top_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      spans = (match tr with Some tr -> Hostspan.aggs tr | None -> []);
    }
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout report [];
  flush stdout

let run_sweep w ~seed ~mode ?out () =
  let args =
    [ "sweep"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed; "--mode"; mode ]
    @ match out with Some dir -> [ "--out"; dir ] | None -> []
  in
  match spawn args with
  | t0, Unix.WEXITED 0, out -> (
    match (Marshal.from_string out 0 : report) with
    | r -> (float_of_int (r.ready_ns - t0 - r.calib_ns) *. 1e-9, r)
    | exception _ -> die "%s sweep child sent no report" w.Workloads.name)
  | _ -> die "%s sweep child failed" w.Workloads.name

(* ---- one run of one workload --------------------------------------------------------- *)

let print_table rows =
  List.iter
    (fun (name, unit_, values) ->
      let q1, q3 = Report.quartiles values in
      Printf.printf "  %-20s %-10s median %-12.6g q1 %-12.6g q3 %-12.6g min %-12.6g n %d\n" name unit_
        (Report.median values) q1 q3
        (List.fold_left Float.min infinity values)
        (List.length values))
    rows

let finish ~failures ~attempted ~failed metrics =
  List.iter (fun f -> prerr_endline ("perf: check failed: " ^ f)) failures;
  print_endline (Report.result_line ~correct:(failures = []) ~attempted ~failed metrics);
  exit (if failures = [] then 0 else 1)

let digest_failures digests =
  match List.sort_uniq compare digests with
  | [] | [ _ ] -> []
  | ds -> [ "inputs: generated inputs differ between sweeps (" ^ String.concat ", " ds ^ ")" ]

let totals sweeps f = List.fold_left (fun acc s -> acc + f s) 0 sweeps

(* A run sweeps until the next sweep would end more than half a sweep past
   the window, so that on average a run lasts the window, and never fewer
   than twice: the sweep-to-sweep determinism check needs a pair. Each
   sweep's process times its own set-up, so [setup_s] is the median over
   the run's sweeps. *)
let min_sweeps = 2

let plain_run w ~seed ~seconds =
  let t0 = Hostspan.now_ns () in
  let rec loop acc =
    let t1 = Hostspan.now_ns () in
    let acc = run_sweep w ~seed ~mode:"plain" () :: acc in
    if
      List.length acc >= min_sweeps
      && Hostspan.seconds_since t0 +. (Hostspan.seconds_since t1 /. 2.) > seconds
    then List.rev acc
    else loop acc
  in
  let runs = loop [] in
  let reports = List.map snd runs in
  let samples =
    List.map
      (fun (setup_s, r) ->
        { Catalogue.setup_s; setup_ref_s = r.setup_ref_s; rss_mb = r.rss_mb; sweep = r.sweep })
      runs
  in
  let sweeps = List.map (fun r -> r.sweep) reports in
  let metrics = Catalogue.end_to_end_metrics samples in
  Printf.printf "%s seed %d: %d sweeps of %d slices in %.1f s%s\n" w.Workloads.name seed (List.length runs)
    (Array.length (List.hd sweeps).Workloads.slices)
    (Hostspan.seconds_since t0)
    (match (List.hd sweeps).Workloads.vis_n with
    | 0 -> ""
    | n -> Printf.sprintf ", vis_n %d per sweep" n);
  print_table
    (List.map
       (fun (m : Report.metric) ->
         (m.Report.name, m.Report.unit_, Catalogue.end_to_end_values samples m.Report.name))
       metrics);
  let refs = List.concat_map (fun s -> Array.to_list s.Workloads.slice_refs) sweeps in
  Printf.printf
    "  (setup_s and wall_s above are as measured, wall_s whole sweeps; the result scales them to a %.2f ms\n\
    \   reference, which took %.2f ms median [%.2f, %.2f] here: setup_s %.6g s, wall_s %.6g s)\n"
    (Calib.nominal_s *. 1e3) (Report.median refs *. 1e3)
    (fst (Report.quartiles refs) *. 1e3)
    (snd (Report.quartiles refs) *. 1e3)
    (Catalogue.scaled_setup_s samples) (Catalogue.scaled_wall_s samples);
  finish
    ~failures:(digest_failures (List.map (fun r -> r.digest) reports) @ Catalogue.check_sweeps sweeps)
    ~attempted:(totals sweeps (fun s -> s.Workloads.issued))
    ~failed:(totals sweeps (fun s -> s.Workloads.failed))
    metrics

let layers_json name metrics spans =
  let spans =
    List.map
      (fun (a : Hostspan.agg) ->
        let pct p =
          if Stats.Hdr.count a.Hostspan.durations = 0 then 0.
          else Stats.Hdr.percentile a.Hostspan.durations p /. 1e3
        in
        Printf.sprintf "{\"name\":%S,\"calls\":%d,\"total_ms\":%s,\"self_ms\":%s,\"p50_us\":%s,\"p99_us\":%s}"
          a.Hostspan.name a.Hostspan.calls
          (Report.num (a.Hostspan.total_ns /. 1e6))
          (Report.num (a.Hostspan.self_ns /. 1e6))
          (Report.num (pct 50.)) (Report.num (pct 99.)))
      spans
  in
  Printf.sprintf "{\"workload\":%S,\"metrics\":{%s},\"spans\":[%s]}" name (Report.metrics_json metrics)
    (String.concat "," spans)

(* the traced run: an untraced sweep, pass 1 (host spans) and pass 2
   (count-only probe and series), each in its own process *)
let traced_run w ~seed ~out =
  let _, plain = run_sweep w ~seed ~mode:"plain" () in
  let _, spans = run_sweep w ~seed ~mode:"spans" ?out () in
  let _, counted = run_sweep w ~seed ~mode:"counted" () in
  let metrics =
    Catalogue.layer_metrics ~setup_layers:plain.setup_layers ~build_s:plain.build_s
      ~top_heap_mb:plain.top_heap_mb ~plain:plain.sweep ~spans:spans.sweep ~counted:counted.sweep
  in
  let sweeps = [ plain.sweep; spans.sweep; counted.sweep ] in
  let undeclared =
    List.sort_uniq compare
      (List.concat_map
         (fun s -> List.map (fun k -> "catalogue: " ^ k ^ " is not declared") (Catalogue.undeclared s))
         sweeps)
  in
  Option.iter
    (fun dir ->
      Out_channel.with_open_bin
        (Filename.concat dir (w.Workloads.name ^ ".layers.json"))
        (fun oc -> output_string oc (layers_json w.Workloads.name metrics spans.spans)))
    out;
  List.iter
    (fun (m : Report.metric) -> Printf.printf "  %-40s %-12s %.6g\n" m.Report.name m.Report.unit_ m.Report.value)
    metrics;
  finish
    ~failures:
      (undeclared
      @ digest_failures (List.map (fun r -> r.digest) [ plain; spans; counted ])
      @ Catalogue.check_sweeps sweeps)
    ~attempted:(totals sweeps (fun s -> s.Workloads.issued))
    ~failed:(totals sweeps (fun s -> s.Workloads.failed))
    metrics

(* ---- run: every workload, one child process per run, interleaved reps -------------- *)

let child_result ~what (status, out) =
  let last = match List.rev (lines out) with l :: _ -> Some l | [] -> None in
  match (status, last) with
  | Unix.WEXITED code, Some line -> (
    match Report.parse_result line with
    | r -> (r, if code = 0 then [] else [ Printf.sprintf "%s exited %d" what code ])
    | exception _ -> die "%s printed no result line" what)
  | _ -> die "%s printed nothing" what

let run_cmd ~seed ~reps ~seconds ~names ~out =
  let t_start = Hostspan.now_ns () in
  let results = Hashtbl.create 8 in
  for rep = 1 to reps do
    List.iter
      (fun name ->
        let _, status, stdout =
          spawn
            [
              "--workload"; name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds; "--trace";
              "0";
            ]
        in
        let what = Printf.sprintf "rep %d of %s" rep name in
        let r, errs = child_result ~what (status, stdout) in
        let value k =
          match List.find_opt (fun (m : Report.metric) -> m.Report.name = k) r.Report.metrics with
          | Some m -> m.Report.value
          | None -> nan
        in
        Printf.printf "rep %d/%d %-14s wall_s %.4f  setup_s %.4f  correct %b\n%!" rep reps name
          (value "wall_s") (value "setup_s") r.Report.correct;
        let prev = Option.value (Hashtbl.find_opt results name) ~default:[] in
        Hashtbl.replace results name ((r, errs) :: prev))
      names
  done;
  let runs =
    List.map
      (fun name ->
        let rs = List.rev (Hashtbl.find results name) in
        let failures = ref (List.concat_map snd rs) in
        let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
        List.iter (fun (r, _) -> if not r.Report.correct then fail "a repetition failed its checks") rs;
        let series =
          List.map
            (fun (m : Catalogue.e2e) ->
              let values =
                List.map
                  (fun (r, _) ->
                    match
                      List.find_opt (fun (x : Report.metric) -> x.Report.name = m.Catalogue.name) r.Report.metrics
                    with
                    | Some x -> x.Report.value
                    | None -> die "%s: a repetition lacks %s" name m.Catalogue.name)
                  rs
              in
              if m.Catalogue.deterministic && List.exists (fun v -> v <> List.hd values) values then
                fail "deterministic: %s differs across repetitions" m.Catalogue.name;
              { Report.sname = m.Catalogue.name; sunit = m.Catalogue.unit_; values })
            Catalogue.end_to_end
        in
        List.iter (fun f -> prerr_endline (Printf.sprintf "perf: %s: check failed: %s" name f)) !failures;
        {
          Report.wname = name;
          wcorrect = !failures = [];
          wattempted = List.fold_left (fun acc (r, _) -> acc + r.Report.attempted) 0 rs;
          wfailed = List.fold_left (fun acc (r, _) -> acc + r.Report.failed) 0 rs;
          series;
        })
      names
  in
  List.iter
    (fun w ->
      Printf.printf "\n%s (reps %d, attempted %d, failed %d, correct %b)\n" w.Report.wname reps
        w.Report.wattempted w.Report.wfailed w.Report.wcorrect;
      print_table (List.map (fun s -> (s.Report.sname, s.Report.sunit, s.Report.values)) w.Report.series))
    runs;
  Out_channel.with_open_bin out (fun oc -> output_string oc (Report.run_json ~seed ~seconds ~reps runs));
  Printf.printf "\nwrote %s; total %.1f s\n" out (Hostspan.seconds_since t_start);
  exit (if List.for_all (fun w -> w.Report.wcorrect) runs then 0 else 1)

let trace_cmd ~seed ~names ~out =
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let ok = ref true in
  let docs =
    List.map
      (fun name ->
        let _, status, stdout =
          spawn [ "--workload"; name; "--seed"; string_of_int seed; "--trace"; "1"; "--out"; out ]
        in
        let r, errs = child_result ~what:("traced " ^ name) (status, stdout) in
        if errs <> [] || not r.Report.correct then ok := false;
        let value k =
          match List.find_opt (fun (m : Report.metric) -> m.Report.name = k) r.Report.metrics with
          | Some m -> m.Report.value
          | None -> nan
        in
        Printf.printf "%-14s trace.overhead_ratio %.3f  obs.tax_ratio %.3f  (%d per-layer metrics)\n%!" name
          (value "trace.overhead_ratio") (value "obs.tax_ratio") (List.length r.Report.metrics);
        let path = Filename.concat out (name ^ ".layers.json") in
        let doc = Report.read_file path in
        Sys.remove path;
        String.trim doc)
      names
  in
  Out_channel.with_open_bin (Filename.concat out "layers.json") (fun oc ->
      Printf.fprintf oc "{\"schema\":\"saturn-perf-layers/1\",\"seed\":%d,\"workloads\":[%s]}\n" seed
        (String.concat ",\n" docs));
  Printf.printf "wrote %s/layers.json and %s/<workload>.trace.json\n" out out;
  exit (if !ok then 0 else 1)

let compare_cmd ~base ~fresh ~intended =
  let spec = Catalogue.gate (Report.read_spec "BENCHMARK.json") in
  let read path = Report.parse_run (Report.read_file path) in
  let rows, problems = Report.compare_runs ~intended spec ~base:(read base) ~fresh:(read fresh) in
  Report.print_rows rows;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) problems;
  let count v = List.length (List.filter (fun r -> r.Report.row_verdict = v) rows) in
  Printf.printf "%d pairs: %d worse, %d unresolved\n" (List.length rows) (count Report.Worse)
    (count Report.Unresolved);
  exit (if count Report.Worse = 0 && problems = [] then 0 else 1)

(* ---- arguments ---------------------------------------------------------------------- *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : int option;
  mutable trace : bool;
  mutable out : string option;
  mutable reps : int;
  mutable mode : string;
  mutable intended : string list;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 42;
      seconds = None;
      trace = false;
      out = None;
      reps = 5;
      mode = "plain";
      intended = [];
      positional = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      o.workload <- Some v;
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- int_arg "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- Some (int_arg "--seconds" v);
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      go rest
    | "--reps" :: v :: rest ->
      o.reps <- int_arg "--reps" v;
      go rest
    | "--mode" :: v :: rest ->
      o.mode <- v;
      go rest
    | "--intended" :: v :: rest ->
      o.intended <- o.intended @ String.split_on_char ',' v;
      go rest
    | x :: _ when String.length x > 1 && x.[0] = '-' -> die "unknown or incomplete option %S" x
    | x :: rest ->
      o.positional <- o.positional @ [ x ];
      go rest
  in
  go args;
  o

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with
    | (("run" | "compare" | "sweep") as c) :: rest -> (c, rest)
    | rest -> ("one", rest)
  in
  let o = parse rest in
  let names = List.map (fun w -> w.Workloads.name) (Workloads.all ()) in
  match (cmd, o.workload, o.out) with
  | "sweep", Some name, out ->
    if not (List.mem o.mode modes) then die "--mode expects plain, spans or counted";
    sweep_child (workload_named name) ~seed:o.seed ~mode:o.mode ~out
  | "compare", _, _ -> (
    match o.positional with
    | [ base; fresh ] -> compare_cmd ~base ~fresh ~intended:o.intended
    | _ -> die "usage: perf.exe compare BASE NEW [--intended METRIC,...]")
  | "run", _, Some out when o.trace -> trace_cmd ~seed:o.seed ~names ~out
  | "run", _, Some out ->
    let seconds = (Report.read_spec "BENCHMARK.json").Report.run_seconds in
    run_cmd ~seed:o.seed ~reps:o.reps ~seconds ~names ~out
  | "one", Some name, out when o.trace -> traced_run (workload_named name) ~seed:o.seed ~out
  | "one", Some name, _ when o.seconds <> None ->
    plain_run (workload_named name) ~seed:o.seed ~seconds:(float_of_int (Option.get o.seconds))
  | _ ->
    die
      "usage: perf.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR] | run [--trace] ... --out \
       PATH | compare BASE NEW"
