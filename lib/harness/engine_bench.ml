type tier_result = {
  tier : string;
  users : int;
  edges : int;
  gen_words_per_edge : float;
  graph_words_per_edge : float;
  stream_ops : int;
  stream_words_per_op : float;
  sim_ops : int;
  sim_events : int;
  sim_words_per_op : float;
  gen_ms : float;
  stream_kops_per_s : float;
  sim_events_per_s : float;
  sim_ms : float;
}

(* words allocated so far, minor + major net of promotions (promoted words
   would otherwise be counted twice). Each read first empties the minor
   heap, so that a phase's figure does not depend on what the phase before
   it left there. The counts come from Gc.counters (), whose major count
   includes the words allocated since the last major slice; quick_stat's
   moves only at slices, so a window read through it gained or lost whole
   unflushed chunks wherever set-up happened to leave the GC's pacing. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let n_dcs = 3
let per_dc = 16
let value_size = 128

let run_tier ?(now_s = fun () -> 0.) ?(stream_ops = 200_000) ~seed tier =
  let module Scale = Workload.Scale in
  (* phase A — generation: O(edges) memory is the claim, words/edge the
     deterministic witness *)
  let t0 = now_s () and w0 = words () in
  let g = Scale.of_tier tier ~seed in
  let gen_ms = (now_s () -. t0) *. 1e3 in
  let gen_words_per_edge = (words () -. w0) /. float_of_int (Scale.n_edges g) in
  (* what the finished graph keeps: the memory every later phase runs in *)
  let graph_words_per_edge =
    float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int (Scale.n_edges g)
  in
  (* phase B — streaming: a fixed op budget drawn round-robin across
     datacenters, no simulator; words/op must not depend on the tier *)
  let ops = Scale.Ops.create g ~n_dcs ~value_size ~seed:(seed + 1) in
  let t0 = now_s () and w0 = words () in
  for i = 0 to stream_ops - 1 do
    ignore (Scale.Ops.next ops ~dc:(i mod n_dcs) : Workload.Op.t)
  done;
  let stream_s = now_s () -. t0 in
  let stream_words_per_op = (words () -. w0) /. float_of_int stream_ops in
  let stream_kops_per_s =
    if stream_s > 0. then float_of_int stream_ops /. stream_s /. 1e3 else 0.
  in
  (* phase C — simulation: the smoke geometry (three sites, explicit
     serializer chain) under the tier's key space, probe off, measuring the
     flattened event path itself *)
  let rmap =
    Kvstore.Replica_map.create ~n_dcs ~n_keys:(Scale.Ops.n_keys g) ~assign:(fun key ->
        Scale.Ops.replicas g ~n_dcs ~key)
  in
  let spec = Build.three_site ~rmap Build.chain_config in
  let { Build.topo; dc_sites; _ } = spec in
  let engine = Sim.Engine.create () in
  let registry = Stats.Registry.create () in
  let metrics = Metrics.create ~registry engine ~topo ~dc_sites in
  let api, _system = Build.saturn ~registry engine spec metrics in
  let clients = Driver.make_clients ~dc_sites ~per_dc in
  let sim_ops_src = Scale.Ops.create g ~n_dcs ~value_size ~seed:(seed + 2) in
  let next_op c = Scale.Ops.next sim_ops_src ~dc:c.Client.preferred_dc in
  let t0 = now_s () and w0 = words () in
  let driver_result =
    Driver.run engine api metrics ~clients ~next_op ~warmup:(Sim.Time.of_ms 200)
      ~measure:(Sim.Time.of_sec 1.) ~cooldown:(Sim.Time.of_ms 200)
  in
  let sim_s = now_s () -. t0 in
  let sim_words = words () -. w0 in
  let sim_ops = driver_result.Driver.ops_completed in
  let sim_events = Sim.Engine.events_processed engine in
  {
    tier = Scale.tier_name tier;
    users = Scale.n_users g;
    edges = Scale.n_edges g;
    gen_words_per_edge;
    graph_words_per_edge;
    stream_ops;
    stream_words_per_op;
    sim_ops;
    sim_events;
    sim_words_per_op = (if sim_ops > 0 then sim_words /. float_of_int sim_ops else 0.);
    gen_ms;
    stream_kops_per_s;
    sim_events_per_s = (if sim_s > 0. then float_of_int sim_events /. sim_s else 0.);
    sim_ms = sim_s *. 1e3;
  }

(* ---- saturn-bench-engine/1 --------------------------------------------- *)

let to_json ~seed results =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"saturn-bench-engine/1\",\"seed\":%d,\"tiers\":[" seed);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"tier\":%S,\"users\":%d,\"det\":{\"edges\":%d,\"gen_words_per_edge\":%.2f,\"graph_words_per_edge\":%.2f,\"stream_ops\":%d,\"stream_words_per_op\":%.2f,\"sim_ops\":%d,\"sim_events\":%d,\"sim_words_per_op\":%.2f},\"wall\":{\"gen_ms\":%.1f,\"stream_kops_per_s\":%.1f,\"sim_events_per_s\":%.0f,\"sim_ms\":%.1f}}"
           r.tier r.users r.edges r.gen_words_per_edge r.graph_words_per_edge r.stream_ops r.stream_words_per_op
           r.sim_ops r.sim_events r.sim_words_per_op r.gen_ms r.stream_kops_per_s
           r.sim_events_per_s r.sim_ms))
    results;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ---- minimal JSON reader ------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "json: %s at offset %d" msg !pos) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then fail (Printf.sprintf "expected %c" c);
      advance ()
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let string_body () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | c -> fail (Printf.sprintf "unsupported escape \\%c" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((k, v) :: acc)
            | '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elems (v :: acc)
            | ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elems [])
        end
      | '"' -> Str (string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> number ()
      | _ -> fail "unexpected character"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ---- the gate ----------------------------------------------------------- *)

type check_result = { failures : string list; notes : string list }

let tolerance = 0.02

let check ~baseline ~fresh ~tolerance =
  let b = Json.parse baseline and f = Json.parse fresh in
  let failures = ref [] and notes = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let str_member k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  (match (str_member "schema" b, str_member "schema" f) with
  | Some sb, Some sf when sb = sf -> ()
  | sb, sf ->
    fail "schema mismatch: baseline %s vs fresh %s"
      (Option.value sb ~default:"<missing>")
      (Option.value sf ~default:"<missing>"));
  (match (Json.member "seed" b, Json.member "seed" f) with
  | Some (Json.Num sb), Some (Json.Num sf) when sb = sf -> ()
  | _ -> fail "seed mismatch: deterministic fields are only comparable at equal seeds");
  let tiers_of j =
    match Json.member "tiers" j with
    | Some (Json.Arr ts) ->
      List.filter_map (fun t -> Option.map (fun name -> (name, t)) (str_member "tier" t)) ts
    | _ -> []
  in
  let b_tiers = tiers_of b and f_tiers = tiers_of f in
  if b_tiers = [] then fail "baseline has no tiers";
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name b_tiers) then note "tier %s present only in fresh run" name)
    f_tiers;
  List.iter
    (fun (name, bt) ->
      match List.assoc_opt name f_tiers with
      | None -> fail "tier %s missing from fresh run" name
      | Some ft ->
        let fields section j =
          match Json.member section j with
          | Some (Json.Obj kvs) ->
            List.filter_map (fun (k, v) -> match v with Json.Num x -> Some (k, x) | _ -> None) kvs
          | _ -> []
        in
        let b_det = fields "det" bt and f_det = fields "det" ft in
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k f_det with
            | None -> fail "%s: deterministic field %s missing from fresh run" name k
            | Some fv ->
              (* relative band with a ±tolerance absolute floor, so
                 near-zero baselines are not brittle *)
              let band = tolerance *. Float.max (Float.abs bv) 1.0 in
              if Float.abs (fv -. bv) > band then
                fail "%s: %s = %g, baseline %g (tolerance %.1f%%)" name k fv bv
                  (tolerance *. 100.))
          b_det;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k b_det) then
              fail "%s: new deterministic field %s not in baseline (regenerate it)" name k)
          f_det;
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k (fields "wall" ft) with
            | Some fv when Float.abs bv > 0. ->
              note "%s: %s %+.1f%% (advisory)" name k ((fv -. bv) /. bv *. 100.)
            | Some _ | None -> ())
          (fields "wall" bt))
    b_tiers;
  { failures = List.rev !failures; notes = List.rev !notes }
