(* Metric values, their summary statistics, the JSON documents the
   benchmark reads and writes, and the compare gate. JSON is read with
   Harness.Engine_bench.Json, the repo's one reader. *)

module Json = Harness.Engine_bench.Json

type metric = { name : string; unit_ : string; value : float }

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Report.median: no values"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* first and third quartile, as Python's statistics.quantiles(xs, n=4)
   computes them (the default "exclusive" method); a single value is its
   own quartiles *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  match ld with
  | 0 -> invalid_arg "Report.quartiles: no values"
  | 1 -> (a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = min (max (i * m / 4) 1) (ld - 1) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* a JSON number carrying every digit of the float *)
let num f =
  if not (Float.is_finite f) then invalid_arg "Report.num: not a finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let metrics_json ms =
  String.concat ","
    (List.map (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (num m.value) m.unit_) ms)

(* the benchmark's result line: exactly these four keys *)
let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct attempted
    failed (metrics_json ms)

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let parse_result line =
  let j = Json.parse line in
  let int_field k = match Json.member k j with Some (Json.Num f) -> int_of_float f | _ -> failwith k in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
      List.map
        (fun (name, v) ->
          match (Json.member "value" v, Json.member "unit" v) with
          | Some (Json.Num value), Some (Json.Str unit_) -> { name; unit_; value }
          | _ -> failwith ("metric " ^ name))
        kvs
    | _ -> failwith "metrics"
  in
  {
    correct = Json.member "correct" j = Some (Json.Bool true);
    attempted = int_field "attempted";
    failed = int_field "failed";
    metrics;
  }

(* ---- BENCHMARK.json ---------------------------------------------------- *)

type bound = {
  bname : string;
  bunit : string;
  lower_is_better : bool;
  bound : float;  (** relative, BENCHMARK.json's *)
  floor : float;  (** absolute, in the metric's unit; 0 in BENCHMARK.json *)
  exact : bool;  (** deterministic: any change at the same seed counts *)
}

type spec = {
  run_seconds : int;
  workload_names : string list;
  end_to_end : bound list;
  per_layer : (string * string) list;  (** name, unit *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_spec path =
  let j = Json.parse (read_file path) in
  let str k v = match Json.member k v with Some (Json.Str s) -> s | _ -> failwith (path ^ ": " ^ k) in
  let arr k = match Json.member k j with Some (Json.Arr xs) -> xs | _ -> failwith (path ^ ": " ^ k) in
  {
    run_seconds =
      (match Json.member "run_seconds" j with
      | Some (Json.Num f) -> int_of_float f
      | _ -> failwith (path ^ ": run_seconds"));
    workload_names = List.map (str "name") (arr "workloads");
    end_to_end =
      List.map
        (fun v ->
          {
            bname = str "name" v;
            bunit = str "unit" v;
            lower_is_better = str "better" v = "lower";
            bound =
              (match Json.member "bound" v with
              | Some (Json.Num f) -> f
              | _ -> failwith (path ^ ": bound"));
            floor = 0.;
            exact = false;
          })
        (arr "end_to_end");
    per_layer = List.map (fun v -> (str "name" v, str "unit" v)) (arr "per_layer");
  }

(* ---- run documents: every repetition of every workload ------------------- *)

type series = { sname : string; sunit : string; values : float list }

type workload_run = {
  wname : string;
  wcorrect : bool;
  wattempted : int;
  wfailed : int;
  series : series list;
}

let run_json ~seed ~seconds ~reps runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"saturn-perf-run/1\",\"seed\":%d,\"seconds\":%d,\"reps\":%d,\"workloads\":["
       seed seconds reps);
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%S,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":["
           w.wname w.wcorrect w.wattempted w.wfailed);
      List.iteri
        (fun k s ->
          if k > 0 then Buffer.add_char b ',';
          let q1, q3 = quartiles s.values in
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":%S,\"unit\":%S,\"median\":%s,\"q1\":%s,\"q3\":%s,\"n\":%d,\"values\":[%s]}"
               s.sname s.sunit (num (median s.values)) (num q1) (num q3) (List.length s.values)
               (String.concat "," (List.map num s.values))))
        w.series;
      Buffer.add_string b "]}")
    runs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

type run_doc = { seed : int; workloads : workload_run list }

let parse_run text =
  let j = Json.parse text in
  let str k v = match Json.member k v with Some (Json.Str s) -> s | _ -> failwith k in
  let int k v = match Json.member k v with Some (Json.Num f) -> int_of_float f | _ -> failwith k in
  let arr k v = match Json.member k v with Some (Json.Arr xs) -> xs | _ -> failwith k in
  {
    seed = int "seed" j;
    workloads =
      List.map
        (fun w ->
          {
            wname = str "name" w;
            wcorrect = Json.member "correct" w = Some (Json.Bool true);
            wattempted = int "attempted" w;
            wfailed = int "failed" w;
            series =
              List.map
                (fun m ->
                  {
                    sname = str "name" m;
                    sunit = str "unit" m;
                    values =
                      List.map
                        (function Json.Num f -> f | _ -> failwith "values")
                        (arr "values" m);
                  })
                (arr "metrics" w);
          })
        (arr "workloads" j);
  }

(* ---- the compare gate ---------------------------------------------------- *)

type verdict = Ok_ | Worse | Unresolved

let verdict_name = function Ok_ -> "ok" | Worse -> "worse" | Unresolved -> "unresolved"

(* NEW against BASE for one metric. A deterministic metric measured at the
   same seed on both sides is [Worse] on any change at all, unless the
   change is [intended]. Otherwise a change or a quartile spread counts
   only past both the relative bound and the absolute floor:
   [Unresolved] when either side's spread is that wide, unless every NEW
   run beats every BASE run; then [Worse] when NEW's median is worse than
   BASE's by that much. *)
let verdict ?(same_seed = false) ?(intended = false) b ~base ~fresh =
  let mb = median base and mf = median fresh in
  let past d ~of_ = d > b.floor && d > b.bound *. Float.abs of_ in
  let wide xs =
    let q1, q3 = quartiles xs in
    past (q3 -. q1) ~of_:(median xs)
  in
  let lo = List.fold_left Float.min infinity and hi = List.fold_left Float.max neg_infinity in
  let all_better =
    if b.lower_is_better then hi fresh < lo base else lo fresh > hi base
  in
  if b.exact && same_seed && not intended then if mf = mb then Ok_ else Worse
  else if (wide base || wide fresh) && not all_better then Unresolved
  else if past (if b.lower_is_better then mf -. mb else mb -. mf) ~of_:mb then Worse
  else Ok_

type row = {
  workload : string;
  metric : string;
  base_q : float * float * float;  (** q1, median, q3 *)
  fresh_q : float * float * float;
  row_bound : float;
  row_verdict : verdict;
  changed : bool;  (** a deterministic metric moved at the same seed *)
}

let summary xs =
  let q1, q3 = quartiles xs in
  (q1, median xs, q3)

(* every (workload, end-to-end metric) pair both documents hold, plus the
   reasons the gate fails outright: more failed operations, a failed
   correctness check, or a pair missing from NEW. [intended] names the
   deterministic metrics NEW means to move. *)
let compare_runs ?(intended = []) spec ~base ~fresh =
  let same_seed = base.seed = fresh.seed in
  let problems = ref [] in
  let rows =
    List.concat_map
      (fun bw ->
        match List.find_opt (fun w -> w.wname = bw.wname) fresh.workloads with
        | None ->
          problems := Printf.sprintf "%s: missing from NEW" bw.wname :: !problems;
          []
        | Some fw ->
          if fw.wfailed > bw.wfailed then
            problems :=
              Printf.sprintf "%s: failed operations rose from %d to %d" bw.wname bw.wfailed
                fw.wfailed
              :: !problems;
          if not fw.wcorrect then
            problems := Printf.sprintf "%s: NEW failed its correctness checks" bw.wname :: !problems;
          List.filter_map
            (fun b ->
              let find w = List.find_opt (fun s -> s.sname = b.bname) w.series in
              match (find bw, find fw) with
              | Some bs, Some fs when bs.values <> [] && fs.values <> [] ->
                Some
                  {
                    workload = bw.wname;
                    metric = b.bname;
                    base_q = summary bs.values;
                    fresh_q = summary fs.values;
                    row_bound = b.bound;
                    row_verdict =
                      verdict ~same_seed ~intended:(List.mem b.bname intended) b ~base:bs.values
                        ~fresh:fs.values;
                    changed = b.exact && same_seed && median bs.values <> median fs.values;
                  }
              | _ ->
                problems := Printf.sprintf "%s: %s missing" bw.wname b.bname :: !problems;
                None)
            spec.end_to_end)
      base.workloads
  in
  (rows, List.rev !problems)

let print_rows rows =
  Printf.printf "%-14s %-20s %12s %25s %12s %25s %6s  %s\n" "workload" "metric" "BASE med"
    "BASE [q1, q3]" "NEW med" "NEW [q1, q3]" "bound" "verdict";
  List.iter
    (fun r ->
      let b1, bm, b3 = r.base_q and f1, fm, f3 = r.fresh_q in
      Printf.printf "%-14s %-20s %12.6g %25s %12.6g %25s %5.1f%%  %s%s\n" r.workload r.metric bm
        (Printf.sprintf "[%.6g, %.6g]" b1 b3)
        fm
        (Printf.sprintf "[%.6g, %.6g]" f1 f3)
        (r.row_bound *. 100.) (verdict_name r.row_verdict)
        (if r.changed then " (changed at the same seed)" else ""))
    rows
