type counter = { cname : string; mutable n : int }

type metric = M_counter of counter | M_pull of (unit -> float)

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 32 }

let kind_name = function M_counter _ -> "counter" | M_pull _ -> "pull gauge"

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

let register_pull t name f =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> clash name ~want:"pull gauge" m
  | None -> Hashtbl.replace t.metrics name (M_pull f)

type value = Counter of int | Gauge of float

let sample = function M_counter c -> Counter c.n | M_pull f -> Gauge (f ())
let find t name = Option.map sample (Hashtbl.find_opt t.metrics name)

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, sample m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_counters t ~prefix =
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | M_counter c when String.starts_with ~prefix name -> acc + c.n
      | M_counter _ | M_pull _ -> acc)
    t.metrics 0

let to_table ?(title = "registry") t =
  let table = Table.create ~title ~columns:[ "metric"; "value" ] in
  List.iter
    (fun (name, v) ->
      let rendered =
        match v with Counter n -> string_of_int n | Gauge v -> Printf.sprintf "%.3f" v
      in
      Table.add_row table [ name; rendered ])
    (snapshot t);
  table

let print ?title t = Table.print (to_table ?title t)
