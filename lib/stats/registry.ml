type counter = { cname : string; mutable n : int }
type gauge = { gname : string; mutable v : float }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_pull of (unit -> float)
  | M_hist of Histogram.t

type t = {
  metrics : (string, metric) Hashtbl.t;
  (* interning: dense integer ids over counters, so per-op call sites that
     cannot conveniently hold a [counter] handle (id tables, arrays of
     op kinds) bump a flat array slot instead of hashing the name *)
  ids : (string, int) Hashtbl.t;
  mutable dense : counter array;
  mutable n_dense : int;
}

let create () =
  { metrics = Hashtbl.create 32; ids = Hashtbl.create 16; dense = [||]; n_dense = 0 }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_pull _ -> "pull gauge"
  | M_hist _ -> "histogram"

let clash name ~want existing =
  invalid_arg
    (Printf.sprintf "Registry: %S already registered as a %s, not a %s" name (kind_name existing)
       want)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (M_counter c) -> c
  | Some m -> clash name ~want:"counter" m
  | None ->
    let c = { cname = name; n = 0 } in
    Hashtbl.replace t.metrics name (M_counter c);
    c

let incr c = c.n <- c.n + 1
let incr_by c n = c.n <- c.n + n
let counter_value c = c.n
let counter_name c = c.cname

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let c = counter t name in
    let id = t.n_dense in
    let cap = Array.length t.dense in
    if id = cap then begin
      let bigger = Array.make (max 16 (cap * 2)) c in
      Array.blit t.dense 0 bigger 0 id;
      t.dense <- bigger
    end;
    t.dense.(id) <- c;
    t.n_dense <- id + 1;
    Hashtbl.replace t.ids name id;
    id

let incr_id t id =
  let c = t.dense.(id) in
  c.n <- c.n + 1

let gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (M_gauge g) -> g
  | Some m -> clash name ~want:"gauge" m
  | None ->
    let g = { gname = name; v = 0. } in
    Hashtbl.replace t.metrics name (M_gauge g);
    g

let set g v = g.v <- v

let register_pull t name f =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> clash name ~want:"pull gauge" m
  | None -> Hashtbl.replace t.metrics name (M_pull f)

let histogram t name ~lo ~hi ~buckets =
  match Hashtbl.find_opt t.metrics name with
  | Some (M_hist h) -> h
  | Some m -> clash name ~want:"histogram" m
  | None ->
    let h = Histogram.create ~lo ~hi ~buckets in
    Hashtbl.replace t.metrics name (M_hist h);
    h

type value = Counter of int | Gauge of float | Hist of Histogram.t

let sample = function
  | M_counter c -> Counter c.n
  | M_gauge g -> Gauge g.v
  | M_pull f -> Gauge (f ())
  | M_hist h -> Hist h

let find t name = Option.map sample (Hashtbl.find_opt t.metrics name)

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, sample m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_counters t ~prefix =
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | M_counter c when String.starts_with ~prefix name -> acc + c.n
      | M_counter _ | M_gauge _ | M_pull _ | M_hist _ -> acc)
    t.metrics 0

let to_table ?(title = "registry") t =
  let table = Table.create ~title ~columns:[ "metric"; "value" ] in
  List.iter
    (fun (name, v) ->
      let rendered =
        match v with
        | Counter n -> string_of_int n
        | Gauge v -> Printf.sprintf "%.3f" v
        | Hist h ->
          if Histogram.count h = 0 then "n=0"
          else
            Printf.sprintf "n=%d mean=%.3f p90=%.3f" (Histogram.count h) (Histogram.mean h)
              (Histogram.percentile h 90.)
      in
      Table.add_row table [ name; rendered ])
    (snapshot t);
  table

let print ?title t = Table.print (to_table ?title t)
