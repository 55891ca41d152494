(* Host-time spans recorded at the benchmark's own call sites.

   Layers are timed from outside, around calls into their public
   functions (the Api.t closures, next_op, Build.*, Driver.run, ...);
   nothing inside lib/ is instrumented. Every call feeds a per-name
   aggregate (count, duration sum, self-time sum, Stats.Hdr of durations);
   full records are kept only when the caller asks, so the traced pass
   does not hold a record per op. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* cost of one clock read, measured once: every span pays two reads, so
   a child's duration carries one read too many and its parent's self
   time two *)
let clock_cost_ns =
  lazy
    (let n = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()) : int)
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

type agg = {
  name : string;
  mutable calls : int;
  mutable total_ns : float;
  mutable self_ns : float;
  durations : Stats.Hdr.t;  (** ns *)
}

type record = {
  index : int;  (** entry order among kept spans *)
  rname : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** index of the nearest kept ancestor, -1 at the root *)
  op : (int * int) option;  (** (client id, op index) for client-op spans *)
}

type frame = {
  fid : int;
  fstart : int;
  mutable child_ns : float;
  frecord : int;  (** this frame's record index once kept, else the parent's *)
  keep : bool;
  fop : (int * int) option;
}

type t = {
  origin : int;
  clock : float;
  ids : (string, int) Hashtbl.t;
  mutable aggs : agg array;
  mutable stack : frame list;
  mutable records : record list;  (** newest first *)
  mutable n_records : int;
}

let create () =
  {
    origin = now_ns ();
    clock = Lazy.force clock_cost_ns;
    ids = Hashtbl.create 16;
    aggs = [||];
    stack = [];
    records = [];
    n_records = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = Array.length t.aggs in
    let agg = { name; calls = 0; total_ns = 0.; self_ns = 0.; durations = Stats.Hdr.create () } in
    t.aggs <- Array.append t.aggs [| agg |];
    Hashtbl.replace t.ids name id;
    id

let enter t ?(keep = false) ?op id =
  let parent_record = match t.stack with f :: _ -> f.frecord | [] -> -1 in
  (* a kept record's index is reserved on entry so its children can point
     at it; the record itself is written on leave *)
  let frecord =
    if keep then begin
      t.n_records <- t.n_records + 1;
      t.n_records - 1
    end
    else parent_record
  in
  t.stack <- { fid = id; fstart = now_ns (); child_ns = 0.; frecord; keep; fop = op } :: t.stack

let leave t id =
  let stop = now_ns () in
  match t.stack with
  | [] -> invalid_arg "Hostspan.leave: no open span"
  | f :: rest ->
    if f.fid <> id then invalid_arg "Hostspan.leave: mismatched span";
    t.stack <- rest;
    let dur = Float.max 0. (float_of_int (stop - f.fstart) -. t.clock) in
    let self = Float.max 0. (dur -. f.child_ns) in
    let a = t.aggs.(id) in
    a.calls <- a.calls + 1;
    a.total_ns <- a.total_ns +. dur;
    a.self_ns <- a.self_ns +. self;
    Stats.Hdr.add a.durations (int_of_float dur);
    (match rest with p :: _ -> p.child_ns <- p.child_ns +. dur +. (2. *. t.clock) | [] -> ());
    if f.keep then begin
      let parent = match rest with p :: _ -> p.frecord | [] -> -1 in
      t.records <-
        { index = f.frecord; rname = a.name; start_ns = f.fstart; end_ns = stop; parent; op = f.fop }
        :: t.records
    end

let span t name f =
  let id = intern t name in
  enter t ~keep:true id;
  Fun.protect ~finally:(fun () -> leave t id) f

let find t name = Option.map (fun id -> t.aggs.(id)) (Hashtbl.find_opt t.ids name)
let calls t name = match find t name with Some a -> a.calls | None -> 0
let self_ns t name = match find t name with Some a -> a.self_ns | None -> 0.

let self_ns_per_call t name =
  match find t name with Some a when a.calls > 0 -> a.self_ns /. float_of_int a.calls | _ -> 0.

let aggs t = Array.to_list t.aggs

(* kept records in entry order, so a parent precedes its children *)
let records t = List.sort (fun a b -> compare a.index b.index) t.records

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
   complete ("X") event per kept record, timestamps in µs from the
   recorder's creation *)
let chrome_json t ~process =
  let b = Buffer.create 65536 in
  let us ns = float_of_int (ns - t.origin) /. 1e3 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":%S}}"
       process);
  List.iter
    (fun r ->
      let op =
        match r.op with
        | Some (client, index) -> Printf.sprintf ",\"client\":%d,\"op\":%d" client index
        | None -> ""
      in
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":%S,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"index\":%d,\"parent\":%d%s}}"
           r.rname (us r.start_ns)
           (float_of_int (r.end_ns - r.start_ns) /. 1e3)
           r.index r.parent op))
    (records t);
  Buffer.add_string b "]}\n";
  Buffer.contents b
