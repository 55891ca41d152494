module Kind = Sim.Probe.Kind

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

type leg = { segment : segment; us : int; ser : int; next : int }

type journey = {
  origin : int;
  oseq : int;
  dst : int;
  visibility_us : int;
  total_us : int;
  legs : leg list;
}

(* one Chain leg per serializer visited, in path order *)
let path j = List.filter_map (fun l -> if l.segment = Chain then Some l.ser else None) j.legs

type seg_stat = { segment : segment; journeys : int; total_us : int; p50_ms : float; p99_ms : float }

type report = {
  journeys : journey list;
  fallback_applied : int;
  incomplete : int;
  mismatches : string list;
  per_segment : seg_stat list;
}

let summary samples =
  (* log-bucketed µs: a 30 µs chain commit and a 40 ms hop resolve
     equally well, where linear ms buckets flattened the former *)
  let hist = Stats.Hdr.create () in
  List.iter (Stats.Hdr.add hist) samples;
  let n = List.length samples in
  let pct p = if n = 0 then 0. else Stats.Hdr.percentile hist p /. 1000. in
  (n, List.fold_left ( + ) 0 samples, pct 50., pct 99.)

(* the first begin of a span is kept, an end with no begin skipped: the
   matched pairs come out in end order, deterministic because the event
   stream is *)
let pair_spans opens on_span at (v : Sim.Probe.view) =
  match v.kind with
  | Kind.Span_begin ->
    let s = Sim.Probe.span_of_view v in
    if not (Hashtbl.mem opens s) then Hashtbl.replace opens s at
  | Kind.Span_end -> (
    let s = Sim.Probe.span_of_view v in
    match Hashtbl.find_opt opens s with
    | Some t0 ->
      Hashtbl.remove opens s;
      on_span s t0 at
    | None -> ())
  | _ -> ()

(* ---- the fold ------------------------------------------------------------ *)

(* matched intervals in µs, indexed by what the journey walk looks up.
   uid-keyed spans are keyed (inst, origin, oseq, ...); lid-keyed spans
   (origin, ts, gear, ...) *)
type iv = int * int

type t = {
  opens : (Sim.Probe.span, Sim.Time.t) Hashtbl.t;
  sink : (int * int * int, iv) Hashtbl.t; (* lid *)
  attach : (int * int * int, int * iv) Hashtbl.t; (* uid -> attach serializer *)
  chain : (int * int * int * int, iv) Hashtbl.t; (* uid, ser *)
  delay_hop : (int * int * int * int * int, iv) Hashtbl.t; (* uid, from, to *)
  hop_into : (int * int * int * int, int * iv) Hashtbl.t; (* uid, to -> from *)
  delay_eg : (int * int * int * int * int, iv) Hashtbl.t; (* uid, ser, dst *)
  egress : (int * int * int * int, int * iv) Hashtbl.t; (* lid, dst -> last serializer *)
  proxy : (int * int * int * int, iv) Hashtbl.t; (* lid, dst *)
  mutable forwards : (int * int * int * int * int) list; (* inst, origin, oseq, gear, ts *)
  applied : (int * int * int * int, bool) Hashtbl.t; (* lid, dst -> fallback *)
  dsts : (int * int * int, int list) Hashtbl.t; (* lid -> every dst applied at or egressed to *)
}

let create () =
  let h () = Hashtbl.create 1024 in
  { opens = h (); sink = h (); attach = h (); chain = h (); delay_hop = h (); hop_into = h ();
    delay_eg = h (); egress = h (); proxy = h (); forwards = []; applied = h (); dsts = h () }

(* a label's destinations come from both apply events and egress spans: it
   can be in flight toward a destination it never reached *)
let add_dst t lid dst =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.dsts lid) in
  if not (List.mem dst cur) then Hashtbl.replace t.dsts lid (dst :: cur)

let file t (s : Sim.Probe.span) t0 t1 =
  let iv = (Sim.Time.to_us t0, Sim.Time.to_us t1) in
  match s.sk with
  | Sk_sink_hold -> Hashtbl.replace t.sink (s.origin, s.seq, s.aux) iv
  | Sk_attach -> Hashtbl.replace t.attach (s.aux, s.origin, s.seq) (s.peer, iv)
  | Sk_chain -> Hashtbl.replace t.chain (s.aux, s.origin, s.seq, s.site) iv
  | Sk_delay_hop -> Hashtbl.replace t.delay_hop (s.aux, s.origin, s.seq, s.site, s.peer) iv
  | Sk_hop -> Hashtbl.replace t.hop_into (s.aux, s.origin, s.seq, s.peer) (s.site, iv)
  | Sk_delay_egress -> Hashtbl.replace t.delay_eg (s.aux, s.origin, s.seq, s.site, s.peer) iv
  | Sk_egress ->
    Hashtbl.replace t.egress (s.origin, s.seq, s.aux, s.peer) (s.site, iv);
    add_dst t (s.origin, s.seq, s.aux) s.peer
  | Sk_proxy_order -> Hashtbl.replace t.proxy (s.origin, s.seq, s.aux, s.site) iv
  | Sk_bulk | Sk_stab -> ()

let step t at (v : Sim.Probe.view) =
  match v.kind with
  | Kind.Span_begin | Kind.Span_end -> (
    (* the payload's bulk trip and the baselines' stabilization holds are
       no leg of a label's journey: never paired *)
    match v.span_kind with Sk_bulk | Sk_stab -> () | _ -> pair_spans t.opens (file t) at v)
  | Kind.Label_forward ->
    let dc = v.f0 and gear = v.f1 and ts = v.f2 and oseq = v.f3 and inst = v.f4 in
    if oseq >= 0 then t.forwards <- (inst, dc, oseq, gear, ts) :: t.forwards
  | Kind.Proxy_apply ->
    let lid_dst = (v.f1, v.f3, v.f2, v.f0) (* (src_dc, ts, gear, dc) *) in
    if not (Hashtbl.mem t.applied lid_dst) then begin
      Hashtbl.replace t.applied lid_dst v.flag;
      add_dst t (v.f1, v.f3, v.f2) v.f0
    end
  | _ -> ()

(* ---- the report: one journey per (forwarded label, destination) ---------- *)

let report t =
  let journeys = ref [] in
  let fallback_applied = ref 0 in
  let incomplete = ref 0 in
  let mismatches = ref [] in
  List.iter
    (fun (inst, origin, oseq, gear, ts) ->
      let lid = (origin, ts, gear) in
      let who dst = Printf.sprintf "dc%d#%d -> dc%d" origin oseq dst in
      List.iter
        (fun dst ->
          match Hashtbl.find_opt t.applied (origin, ts, gear, dst) with
          | Some true -> incr fallback_applied
          | None -> incr incomplete
          | Some false -> (
            let missing what = mismatches := Printf.sprintf "%s: missing %s span" (who dst) what :: !mismatches in
            match
              ( Hashtbl.find_opt t.sink lid,
                Hashtbl.find_opt t.attach (inst, origin, oseq),
                Hashtbl.find_opt t.egress (origin, ts, gear, dst),
                Hashtbl.find_opt t.proxy (origin, ts, gear, dst) )
            with
            | None, _, _, _ -> missing "sink_hold"
            | _, None, _, _ -> missing "attach"
            | _, _, None, _ -> missing "egress"
            | _, _, _, None -> missing "proxy_order"
            | Some iv_sink, Some (s0, iv_attach), Some (s_last, iv_egress), Some iv_proxy ->
              (* walk the hop spans backward from the last serializer to the
                 attach serializer to recover the tree path *)
              let rec back s acc steps =
                if s = s0 then Some acc
                else if steps > 128 then None
                else
                  match Hashtbl.find_opt t.hop_into (inst, origin, oseq, s) with
                  | Some (from, iv) -> back from ((from, s, iv) :: acc) (steps + 1)
                  | None -> None
              in
              (match back s_last [] 0 with
              | None -> missing (Printf.sprintf "hop path into s%d" s_last)
              | Some edges ->
                let legs = ref [] in
                let ok = ref true in
                let leg segment ser next (a, b) =
                  legs := { segment; us = b - a; ser; next } :: !legs
                in
                let chain_at s =
                  match Hashtbl.find_opt t.chain (inst, origin, oseq, s) with
                  | Some iv -> leg Chain s (-1) iv
                  | None ->
                    ok := false;
                    missing (Printf.sprintf "chain@s%d" s)
                in
                leg Sink_hold (-1) (-1) iv_sink;
                leg Attach (-1) (-1) iv_attach;
                chain_at s0;
                List.iter
                  (fun (a, b, iv_hop) ->
                    (* δ = 0: no span, no time *)
                    Option.iter (leg Delay_hop a b)
                      (Hashtbl.find_opt t.delay_hop (inst, origin, oseq, a, b));
                    leg Hop a b iv_hop;
                    chain_at b)
                  edges;
                Option.iter (leg Delay_egress s_last (-1))
                  (Hashtbl.find_opt t.delay_eg (inst, origin, oseq, s_last, dst));
                leg Egress s_last (-1) iv_egress;
                leg Proxy_order (-1) (-1) iv_proxy;
                if !ok then begin
                  let legs = List.rev !legs in
                  let total_us = List.fold_left (fun acc l -> acc + l.us) 0 legs in
                  let visibility_us = snd iv_proxy - fst iv_sink in
                  if total_us <> visibility_us then
                    mismatches :=
                      Printf.sprintf "%s: segments sum %dus, visibility %dus" (who dst) total_us
                        visibility_us
                      :: !mismatches;
                  journeys := { origin; oseq; dst; visibility_us; total_us; legs } :: !journeys
                end)))
        (List.sort compare (Option.value ~default:[] (Hashtbl.find_opt t.dsts lid))))
    (List.sort compare t.forwards);
  let journeys = List.rev !journeys in
  let per_segment =
    List.map
      (fun segment ->
        let journeys, total_us, p50_ms, p99_ms =
          summary
            (List.filter_map
               (fun j ->
                 match List.filter (fun (l : leg) -> l.segment = segment) j.legs with
                 | [] -> None
                 | ls -> Some (List.fold_left (fun acc l -> acc + l.us) 0 ls))
               journeys)
        in
        { segment; journeys; total_us; p50_ms; p99_ms })
      segments
  in
  {
    journeys;
    fallback_applied = !fallback_applied;
    incomplete = !incomplete;
    mismatches = List.rev !mismatches;
    per_segment;
  }

let analyze probe =
  let t = create () in
  Sim.Probe.iter_views probe (step t);
  report t

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
