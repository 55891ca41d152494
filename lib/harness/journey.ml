type segment =
  | Sink_hold
  | Attach
  | Chain
  | Delay_hop
  | Hop
  | Delay_egress
  | Egress
  | Proxy_order

let segments =
  [ Sink_hold; Attach; Chain; Delay_hop; Hop; Delay_egress; Egress; Proxy_order ]

let segment_name = function
  | Sink_hold -> "sink_hold"
  | Attach -> "attach"
  | Chain -> "chain"
  | Delay_hop -> "delay_hop"
  | Hop -> "hop"
  | Delay_egress -> "delay_egress"
  | Egress -> "egress"
  | Proxy_order -> "proxy_order"

type journey = {
  origin : int;
  oseq : int;
  dst : int;
  visibility_us : int;
  total_us : int;
  parts : (segment * int) list;
  path : int list;
}

type seg_stat = { segment : segment; journeys : int; total_us : int; p50_ms : float; p99_ms : float }

type report = {
  journeys : journey list;
  fallback_applied : int;
  incomplete : int;
  mismatches : string list;
  per_segment : seg_stat list;
}

(* matched (span, begin, end) triples, in end-event order: deterministic
   because the underlying trace is *)
let spans probe =
  let opens = Hashtbl.create 1024 in
  let out = ref [] in
  Sim.Probe.iter probe (fun at ev ->
      match ev with
      | Sim.Probe.Span_begin s -> if not (Hashtbl.mem opens s) then Hashtbl.replace opens s at
      | Sim.Probe.Span_end s -> (
        match Hashtbl.find_opt opens s with
        | Some t0 ->
          Hashtbl.remove opens s;
          out := (s, t0, at) :: !out
        | None -> ())
      | _ -> ());
  List.rev !out

let analyze probe =
  (* ---- pass 1: matched span intervals + join/apply points --------------- *)
  let opens = Hashtbl.create 1024 in
  (* secondary indexes over matched intervals, in µs. uid-keyed spans are
     keyed (inst, origin, oseq, ...); lid-keyed spans (origin, ts, gear, ...) *)
  let sink = Hashtbl.create 1024 in (* lid -> iv *)
  let attach = Hashtbl.create 1024 in (* uid -> (dc, s0, iv) *)
  let chain = Hashtbl.create 1024 in (* uid * ser -> iv *)
  let delay_hop = Hashtbl.create 64 in (* uid * (from, to) -> iv *)
  let hop_into = Hashtbl.create 1024 in (* uid * to -> (from, iv) *)
  let delay_eg = Hashtbl.create 64 in (* uid * (ser, dst) -> iv *)
  let egress = Hashtbl.create 1024 in (* lid * dst -> (ser, iv) *)
  let proxy = Hashtbl.create 1024 in (* lid * dst -> iv *)
  let forwards = ref [] in (* (inst, origin, oseq, gear, ts) *)
  let applied = Hashtbl.create 1024 in (* lid * dst -> fallback *)
  let record (s : Sim.Probe.span) iv =
    let open Sim.Probe in
    match s.sk with
    | Sk_sink_hold -> Hashtbl.replace sink (s.origin, s.seq, s.aux) iv
    | Sk_attach -> Hashtbl.replace attach (s.aux, s.origin, s.seq) (s.site, s.peer, iv)
    | Sk_chain -> Hashtbl.replace chain (s.aux, s.origin, s.seq, s.site) iv
    | Sk_delay_hop -> Hashtbl.replace delay_hop (s.aux, s.origin, s.seq, s.site, s.peer) iv
    | Sk_hop -> Hashtbl.replace hop_into (s.aux, s.origin, s.seq, s.peer) (s.site, iv)
    | Sk_delay_egress -> Hashtbl.replace delay_eg (s.aux, s.origin, s.seq, s.site, s.peer) iv
    | Sk_egress -> Hashtbl.replace egress (s.origin, s.seq, s.aux, s.peer) (s.site, iv)
    | Sk_proxy_order -> Hashtbl.replace proxy (s.origin, s.seq, s.aux, s.site) iv
    | Sk_bulk | Sk_stab -> ()
  in
  Sim.Probe.iter probe (fun at ev ->
      match ev with
      | Sim.Probe.Span_begin s -> if not (Hashtbl.mem opens s) then Hashtbl.replace opens s at
      | Sim.Probe.Span_end s -> (
        match Hashtbl.find_opt opens s with
        | Some t0 ->
          Hashtbl.remove opens s;
          record s (Sim.Time.to_us t0, Sim.Time.to_us at)
        | None -> ())
      | Sim.Probe.Label_forward { dc; gear; ts; oseq; inst; epoch = _ } ->
        if oseq >= 0 then forwards := (inst, dc, oseq, gear, ts) :: !forwards
      | Sim.Probe.Proxy_apply { dc; src_dc; gear; ts; fallback } ->
        if not (Hashtbl.mem applied (src_dc, ts, gear, dc)) then
          Hashtbl.replace applied (src_dc, ts, gear, dc) fallback
      | _ -> ());
  (* destination sets per lid, from both apply events and egress spans (a
     label can be in flight toward a destination it never reached) *)
  let dsts_of = Hashtbl.create 1024 in
  let add_dst lid dst =
    let cur = Option.value ~default:[] (Hashtbl.find_opt dsts_of lid) in
    if not (List.mem dst cur) then Hashtbl.replace dsts_of lid (dst :: cur)
  in
  (* lint: allow unordered-iteration — builds an intermediate set; the only
     consumer sorts each destination list before walking it (pass 2 below) *)
  Hashtbl.iter (fun (o, ts, g, dst) _ -> add_dst (o, ts, g) dst) applied;
  (* lint: allow unordered-iteration — same set as above; order cannot escape *)
  Hashtbl.iter (fun (o, ts, g, dst) _ -> add_dst (o, ts, g) dst) egress;
  (* ---- pass 2: one journey per (forwarded label, destination) ----------- *)
  let journeys = ref [] in
  let fallback_applied = ref 0 in
  let incomplete = ref 0 in
  let mismatches = ref [] in
  let dur (a, b) = b - a in
  List.iter
    (fun (inst, origin, oseq, gear, ts) ->
      let lid = (origin, ts, gear) in
      let who dst = Printf.sprintf "dc%d#%d -> dc%d" origin oseq dst in
      List.iter
        (fun dst ->
          match Hashtbl.find_opt applied (origin, ts, gear, dst) with
          | Some true -> incr fallback_applied
          | None -> incr incomplete
          | Some false -> (
            let missing what = mismatches := Printf.sprintf "%s: missing %s span" (who dst) what :: !mismatches in
            match
              ( Hashtbl.find_opt sink lid,
                Hashtbl.find_opt attach (inst, origin, oseq),
                Hashtbl.find_opt egress (origin, ts, gear, dst),
                Hashtbl.find_opt proxy (origin, ts, gear, dst) )
            with
            | None, _, _, _ -> missing "sink_hold"
            | _, None, _, _ -> missing "attach"
            | _, _, None, _ -> missing "egress"
            | _, _, _, None -> missing "proxy_order"
            | Some iv_sink, Some (_dc, s0, iv_attach), Some (s_last, iv_egress), Some iv_proxy ->
              (* walk the hop spans backward from the last serializer to the
                 attach serializer to recover the tree path *)
              let rec back s acc steps =
                if s = s0 then Some acc
                else if steps > 128 then None
                else
                  match Hashtbl.find_opt hop_into (inst, origin, oseq, s) with
                  | Some (from, iv) -> back from ((from, s, iv) :: acc) (steps + 1)
                  | None -> None
              in
              (match back s_last [] 0 with
              | None -> missing (Printf.sprintf "hop path into s%d" s_last)
              | Some edges ->
                let parts = ref [] in
                let ok = ref true in
                let part seg us = parts := (seg, us) :: !parts in
                part Sink_hold (dur iv_sink);
                part Attach (dur iv_attach);
                (match Hashtbl.find_opt chain (inst, origin, oseq, s0) with
                | Some iv -> part Chain (dur iv)
                | None ->
                  ok := false;
                  missing (Printf.sprintf "chain@s%d" s0));
                List.iter
                  (fun (a, b, iv_hop) ->
                    (match Hashtbl.find_opt delay_hop (inst, origin, oseq, a, b) with
                    | Some iv -> part Delay_hop (dur iv)
                    | None -> () (* δ = 0: no span, no time *));
                    part Hop (dur iv_hop);
                    match Hashtbl.find_opt chain (inst, origin, oseq, b) with
                    | Some iv -> part Chain (dur iv)
                    | None ->
                      ok := false;
                      missing (Printf.sprintf "chain@s%d" b))
                  edges;
                (match Hashtbl.find_opt delay_eg (inst, origin, oseq, s_last, dst) with
                | Some iv -> part Delay_egress (dur iv)
                | None -> ());
                part Egress (dur iv_egress);
                part Proxy_order (dur iv_proxy);
                if !ok then begin
                  let parts = List.rev !parts in
                  let total_us = List.fold_left (fun acc (_, us) -> acc + us) 0 parts in
                  let visibility_us = snd iv_proxy - fst iv_sink in
                  if total_us <> visibility_us then
                    mismatches :=
                      Printf.sprintf "%s: segments sum %dus, visibility %dus" (who dst) total_us
                        visibility_us
                      :: !mismatches;
                  let path = s0 :: List.map (fun (_, b, _) -> b) edges in
                  journeys :=
                    { origin; oseq; dst; visibility_us; total_us; parts; path } :: !journeys
                end)))
        (List.sort compare (Option.value ~default:[] (Hashtbl.find_opt dsts_of lid))))
    (List.sort compare !forwards);
  let journeys = List.rev !journeys in
  (* ---- per-segment aggregation ------------------------------------------ *)
  let per_segment =
    List.map
      (fun seg ->
        (* log-bucketed µs: a 30 µs chain commit and a 40 ms hop resolve
           equally well, where linear ms buckets flattened the former *)
        let hist = Stats.Hdr.create () in
        let n = ref 0 and total = ref 0 in
        List.iter
          (fun j ->
            let us = List.fold_left (fun acc (s, us) -> if s = seg then acc + us else acc) 0 j.parts in
            if List.exists (fun (s, _) -> s = seg) j.parts then begin
              incr n;
              total := !total + us;
              Stats.Hdr.add hist us
            end)
          journeys;
        {
          segment = seg;
          journeys = !n;
          total_us = !total;
          p50_ms = (if !n = 0 then 0. else Stats.Hdr.percentile hist 50. /. 1000.);
          p99_ms = (if !n = 0 then 0. else Stats.Hdr.percentile hist 99. /. 1000.);
        })
      segments
  in
  {
    journeys;
    fallback_applied = !fallback_applied;
    incomplete = !incomplete;
    mismatches = List.rev !mismatches;
    per_segment;
  }

(* ---- rendering ---------------------------------------------------------- *)

let table r =
  let tbl =
    Stats.Table.create
      ~title:
        (Printf.sprintf "visibility-latency decomposition (%d journeys, %d fallback, %d in flight)"
           (List.length r.journeys) r.fallback_applied r.incomplete)
      ~columns:[ "segment"; "journeys"; "total ms"; "share"; "p50 ms"; "p99 ms"; "" ]
  in
  let grand = List.fold_left (fun acc s -> acc + s.total_us) 0 r.per_segment in
  List.iter
    (fun s ->
      let share = if grand = 0 then 0. else 100. *. float_of_int s.total_us /. float_of_int grand in
      let bar = String.make (int_of_float (share /. 2.5)) '#' in
      Stats.Table.add_row tbl
        [
          segment_name s.segment;
          string_of_int s.journeys;
          Printf.sprintf "%.1f" (float_of_int s.total_us /. 1000.);
          Printf.sprintf "%.1f%%" share;
          (if s.journeys = 0 then "-" else Printf.sprintf "%.1f" s.p50_ms);
          (if s.journeys = 0 then "-" else Printf.sprintf "%.1f" s.p99_ms);
          bar;
        ])
    r.per_segment;
  tbl

let check r = match r.mismatches with [] -> Ok () | ms -> Error ms
