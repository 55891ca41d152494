type kind = Counter | Gauge | Hist

type point = {
  count : int;
  vmin : float;
  vmean : float;
  vmax : float;
  p50 : float;
  p99 : float;
}

let empty_point = { count = 0; vmin = 0.; vmean = 0.; vmax = 0.; p50 = 0.; p99 = 0. }

(* per-window accumulator; one histogram allocation is reused across windows
   via [Hdr.reset] *)
type acc =
  | A_counter of { mutable delta : int }
  | A_gauge of { mutable n : int; mutable sum : float; mutable gmin : float; mutable gmax : float }
  | A_hist of { h : Hdr.t; mutable hmin : float; mutable hmax : float }

type series = {
  s_name : string;
  s_kind : kind;
  w_us : int; (* owning registry's window width, for window indexing *)
  acc : acc;
  mutable cur : int; (* window index the accumulator covers *)
  mutable closed : point array; (* growable; first n_closed slots are live *)
  mutable n_closed : int;
  pull : (unit -> float) option;
}

type t = {
  window_us : int;
  tbl : (string, series) Hashtbl.t;
  mutable rev_ordered : series list; (* registration order, reversed *)
  mutable rev_annotations : (int * string) list; (* (us, name), emission order reversed *)
}

type counter = series
type hist = series

(* gauge samples per window: the [tick] cadence *)
let samples_per_window = 5

let create ?(window = Sim.Time.of_ms 50) () =
  let window_us = Sim.Time.to_us window in
  if window_us <= 0 then invalid_arg "Series.create: window must be positive";
  { window_us; tbl = Hashtbl.create 32; rev_ordered = []; rev_annotations = [] }

let window t = Sim.Time.of_us t.window_us
let tick_period t = Sim.Time.of_us (max 1 (t.window_us / samples_per_window))

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Hist -> "hist"

(* histogram series take millisecond observations but store integer
   microseconds in log-bucketed [Hdr] histograms: constant relative error
   (< 0.8% at the default geometry) from a 30 µs chain commit to a
   multi-second fault-era tail, where the previous 1 ms linear buckets
   both saturated above 2 s and flattened everything below 1 ms *)
let us_of_ms v = int_of_float (Float.round (v *. 1000.))
let ms_of_us v = v /. 1000.

let fresh_acc = function
  | Counter -> A_counter { delta = 0 }
  | Gauge -> A_gauge { n = 0; sum = 0.; gmin = 0.; gmax = 0. }
  | Hist -> A_hist { h = Hdr.create (); hmin = 0.; hmax = 0. }

let register t name k pull =
  if not (String.length name > 7 && String.sub name 0 7 = "series.") then
    invalid_arg (Printf.sprintf "Series: name %S must start with \"series.\"" name);
  match Hashtbl.find_opt t.tbl name with
  | Some s when s.s_kind = k -> s
  | Some s ->
    invalid_arg
      (Printf.sprintf "Series: %S is a %s series, not a %s" name (kind_name s.s_kind)
         (kind_name k))
  | None ->
    let s =
      { s_name = name; s_kind = k; w_us = t.window_us; acc = fresh_acc k; cur = 0;
        closed = Array.make 16 empty_point; n_closed = 0; pull }
    in
    Hashtbl.replace t.tbl name s;
    t.rev_ordered <- s :: t.rev_ordered;
    s

let close_acc s =
  match s.acc with
  | A_counter a ->
    let d = a.delta in
    a.delta <- 0;
    if d = 0 then empty_point
    else
      let f = float_of_int d in
      { count = d; vmin = f; vmean = f; vmax = f; p50 = 0.; p99 = 0. }
  | A_gauge a ->
    if a.n = 0 then empty_point
    else begin
      let p =
        { count = a.n; vmin = a.gmin; vmean = a.sum /. float_of_int a.n; vmax = a.gmax;
          p50 = 0.; p99 = 0. }
      in
      a.n <- 0;
      a.sum <- 0.;
      a.gmin <- 0.;
      a.gmax <- 0.;
      p
    end
  | A_hist a ->
    let n = Hdr.count a.h in
    if n = 0 then empty_point
    else begin
      let p =
        { count = n; vmin = a.hmin; vmean = ms_of_us (Hdr.mean a.h); vmax = a.hmax;
          p50 = ms_of_us (Hdr.percentile a.h 50.); p99 = ms_of_us (Hdr.percentile a.h 99.) }
      in
      Hdr.reset a.h;
      a.hmin <- 0.;
      a.hmax <- 0.;
      p
    end

let append s p =
  if s.n_closed = Array.length s.closed then begin
    let bigger = Array.make (2 * Array.length s.closed) empty_point in
    Array.blit s.closed 0 bigger 0 s.n_closed;
    s.closed <- bigger
  end;
  s.closed.(s.n_closed) <- p;
  s.n_closed <- s.n_closed + 1

(* close windows [s.cur, to_idx): empty intervening windows become empty
   points, so every series keeps a gap-free axis *)
let roll s ~to_idx =
  while s.cur < to_idx do
    append s (close_acc s);
    s.cur <- s.cur + 1
  done

let enter s ~now =
  let w = Sim.Time.to_us now / s.w_us in
  if w > s.cur then roll s ~to_idx:w

let counter t name = register t name Counter None

let incr ?(by = 1) (s : counter) ~now =
  enter s ~now;
  match s.acc with A_counter a -> a.delta <- a.delta + by | A_gauge _ | A_hist _ -> assert false

let sample t name f =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Series.sample: %S already registered" name);
  ignore (register t name Gauge (Some f))

let hist t name = register t name Hist None

let observe (s : hist) ~now v =
  enter s ~now;
  match s.acc with
  | A_hist a ->
    if Hdr.count a.h = 0 then begin
      a.hmin <- v;
      a.hmax <- v
    end
    else begin
      if v < a.hmin then a.hmin <- v;
      if v > a.hmax then a.hmax <- v
    end;
    Hdr.add a.h (us_of_ms v)
  | A_counter _ | A_gauge _ -> assert false

let gauge_record s v =
  match s.acc with
  | A_gauge a ->
    if a.n = 0 then begin
      a.gmin <- v;
      a.gmax <- v
    end
    else begin
      if v < a.gmin then a.gmin <- v;
      if v > a.gmax then a.gmax <- v
    end;
    a.n <- a.n + 1;
    a.sum <- a.sum +. v
  | A_counter _ | A_hist _ -> assert false

let tick t ~now =
  (* registration order, which is itself deterministic (creation-time code
     path order); pulls only read foreign state *)
  List.iter
    (fun s ->
      match s.pull with
      | Some f ->
        enter s ~now;
        gauge_record s (f ())
      | None -> ())
    (List.rev t.rev_ordered)

let seal t ~now =
  let to_idx = (Sim.Time.to_us now / t.window_us) + 1 in
  List.iter (fun s -> roll s ~to_idx) t.rev_ordered

(* ---- annotations -------------------------------------------------------- *)

let annotate t ~us name = t.rev_annotations <- (us, name) :: t.rev_annotations

let annotations t =
  List.sort
    (fun (ua, na) (ub, nb) -> match Int.compare ua ub with 0 -> String.compare na nb | c -> c)
    t.rev_annotations

(* ---- reading ----------------------------------------------------------- *)

let n_windows t = List.fold_left (fun m s -> max m s.n_closed) 0 t.rev_ordered

let sorted_series t =
  List.sort (fun a b -> compare a.s_name b.s_name) t.rev_ordered

let names t = List.map (fun s -> s.s_name) (sorted_series t)
let kind_of t name = Option.map (fun s -> s.s_kind) (Hashtbl.find_opt t.tbl name)

let points t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> invalid_arg (Printf.sprintf "Series.points: unknown series %S" name)
  | Some s ->
    let n = n_windows t in
    Array.init n (fun i -> if i < s.n_closed then s.closed.(i) else empty_point)

let primary_of s p =
  match s.s_kind with
  | Counter -> float_of_int p.count
  | Gauge -> p.vmax
  | Hist -> p.p99

let primary t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> invalid_arg (Printf.sprintf "Series.primary: unknown series %S" name)
  | Some s -> Array.map (fun p -> primary_of s p) (points t name)

(* ---- rendering --------------------------------------------------------- *)

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "series,kind,window,start_ms,count,min,mean,max,p50,p99\n";
  let n = n_windows t in
  List.iter
    (fun s ->
      for i = 0 to n - 1 do
        let p = if i < s.n_closed then s.closed.(i) else empty_point in
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,%d,%.1f,%d,%.3f,%.3f,%.3f,%.3f,%.3f\n" s.s_name
             (kind_name s.s_kind) i
             (float_of_int (i * t.window_us) /. 1000.)
             p.count p.vmin p.vmean p.vmax p.p50 p.p99)
      done)
    (sorted_series t);
  (* annotations ride as pseudo-rows with the same column count, so the CSV
     digest covers them and a switch/fault mark drifting in time fails the
     determinism gate like any other divergence *)
  List.iter
    (fun (us, name) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,annotation,%d,%.1f,0,0.000,0.000,0.000,0.000,0.000\n" name
           (us / t.window_us)
           (float_of_int us /. 1000.)))
    (annotations t);
  buf

let to_csv t = Buffer.contents (to_csv t)

let json_point buf i p =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"w\":%d,\"count\":%d,\"min\":%.3f,\"mean\":%.3f,\"max\":%.3f,\"p50\":%.3f,\"p99\":%.3f}"
       i p.count p.vmin p.vmean p.vmax p.p50 p.p99)

let to_json t =
  let buf = Buffer.create 4096 in
  let n = n_windows t in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"saturn-series/1\",\"window_us\":%d,\"windows\":%d,\"series\":["
       t.window_us n);
  List.iteri
    (fun si s ->
      if si > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%S,\"kind\":%S,\"points\":[" s.s_name (kind_name s.s_kind));
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_char buf ',';
        json_point buf i (if i < s.n_closed then s.closed.(i) else empty_point)
      done;
      Buffer.add_string buf "]}")
    (sorted_series t);
  Buffer.add_string buf "],\"annotations\":[";
  List.iteri
    (fun i (us, name) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%S,\"us\":%d,\"w\":%d}" name us (us / t.window_us)))
    (annotations t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let digest t = Sim.Fnv.digest (to_csv t)

let spark_chars = " .:-=+*#%@"

let sparkline values =
  let vmax = Array.fold_left Float.max 0. values in
  String.init (Array.length values) (fun i ->
      let v = values.(i) in
      if vmax <= 0. || v <= 0. then spark_chars.[0]
      else
        let level = 1 + int_of_float (v /. vmax *. 8.999) in
        spark_chars.[min level 9])

let to_table ?(title = "time series") t =
  let tbl = Table.create ~title ~columns:[ "series"; "kind"; "windows"; "peak"; "timeline" ] in
  List.iter
    (fun s ->
      let values = primary t s.s_name in
      let peak = Array.fold_left Float.max 0. values in
      Table.add_row tbl
        [ s.s_name; kind_name s.s_kind; string_of_int (Array.length values);
          Printf.sprintf "%.1f" peak; sparkline values ])
    (sorted_series t);
  tbl

(* ---- recovery detection ------------------------------------------------ *)

let recovery_window ~window_us ~fault_at_us ~heal_at_us ?(tolerance = 0.25) ?(slack = 0.) values =
  if window_us <= 0 then invalid_arg "Series.recovery_window: window_us must be positive";
  let fault_idx = fault_at_us / window_us in
  let heal_idx = heal_at_us / window_us in
  let n = Array.length values in
  let steady_n = min fault_idx n in
  if steady_n <= 0 then None
  else begin
    let sum = ref 0. in
    for i = 0 to steady_n - 1 do
      sum := !sum +. values.(i)
    done;
    let steady = !sum /. float_of_int steady_n in
    let threshold = (steady *. (1. +. tolerance)) +. slack in
    let rec find i = if i >= n then None else if values.(i) <= threshold then Some i else find (i + 1) in
    find (max heal_idx fault_idx)
  end
