type part = Sink_hold | Serializer | Delta | Proxy_order | Transit_excess

let parts = [ Sink_hold; Serializer; Delta; Proxy_order; Transit_excess ]

let part_name = function
  | Sink_hold -> "sink_hold"
  | Serializer -> "serializer"
  | Delta -> "delta"
  | Proxy_order -> "proxy_order"
  | Transit_excess -> "transit_excess"

type blamed = {
  j : Journey.journey;
  optimal_us : int;
  gap_us : int;
  blame : (part * int) list;
  culprits : (string * int) list;
}

type part_stat = {
  part : part;
  journeys : int;
  total_us : int;
  p50_ms : float;
  p99_ms : float;
}

type culprit_stat = {
  culprit : string;
  c_journeys : int;
  c_total_us : int;
  c_tail_us : int;
}

type report = {
  blamed : blamed list;
  by_gap : blamed list;
  per_part : part_stat list;
  culprits : culprit_stat list;
  gap_hist : Stats.Hdr.t;
  tail_threshold_us : int;
  optimal_total_us : int;
  mismatches : string list;
  fallback_applied : int;
  incomplete : int;
}

(* ---- the optimum ---------------------------------------------------------- *)

let optimal_matrix ~topo ~dc_sites ~bulk_factor =
  let n = Array.length dc_sites in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Sim.Time.to_us
              (Saturn.Fabric.bulk_latency ~bulk_factor
                 (Sim.Topology.latency topo dc_sites.(i) dc_sites.(j)))))
  in
  (* Floyd–Warshall: the bulk fabric is a full mesh of direct links, but a
     geography violating the triangle inequality makes a relayed path the
     true optimum — the paper's "deviation from optimal" baseline *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) + m.(k).(j) < m.(i).(j) then m.(i).(j) <- m.(i).(k) + m.(k).(j)
      done
    done
  done;
  m

let observe_series engine metrics series { Build.topo; dc_sites; bulk_factor; _ } =
  let vis = Stats.Series.hist series "series.vis_ms" in
  let optimal = optimal_matrix ~topo ~dc_sites ~bulk_factor in
  let gap = Stats.Series.hist series "series.gap_ms" in
  Metrics.subscribe metrics (fun ~dc ~key:_ ~origin_dc ~origin_time ~value:_ ->
      let now = Sim.Engine.now engine in
      let ms = Sim.Time.to_ms_float (Sim.Time.sub now origin_time) in
      Stats.Series.observe vis ~now ms;
      Stats.Series.observe gap ~now (ms -. (float_of_int optimal.(origin_dc).(dc) /. 1000.)));
  optimal

(* ---- per-journey attribution ---------------------------------------------- *)

(* assoc-merge keeping first-occurrence order *)
let merge_culprits legs_named =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, us) ->
      match Hashtbl.find_opt tbl name with
      | Some v -> Hashtbl.replace tbl name (v + us)
      | None ->
        Hashtbl.replace tbl name us;
        order := name :: !order)
    legs_named;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let blame_journey ~optimal (j : Journey.journey) =
  let opt = optimal.(j.origin).(j.dst) in
  let sum segments =
    List.fold_left
      (fun acc (l : Journey.leg) -> if List.mem l.segment segments then acc + l.us else acc)
      0 j.legs
  in
  (* shortest-path transit is the necessary floor: whatever the label's
     physical route (attach link + tree hops + egress) costs beyond it is
     overhead — off-shortest-path detours, retransmissions, spiked links *)
  let transit_excess = sum Journey.[ Attach; Hop; Egress ] - opt in
  let blame =
    [
      (Sink_hold, sum Journey.[ Sink_hold ]);
      (Serializer, sum Journey.[ Chain ]);
      (Delta, sum Journey.[ Delay_hop; Delay_egress ]);
      (Proxy_order, sum Journey.[ Proxy_order ]);
      (Transit_excess, transit_excess);
    ]
  in
  let culprits =
    merge_culprits
      (List.filter_map
         (fun (l : Journey.leg) ->
           match l.segment with
           | Journey.Sink_hold -> Some (Printf.sprintf "sink.dc%d" j.origin, l.us)
           | Chain -> Some (Printf.sprintf "ser%d" l.ser, l.us)
           | Delay_hop -> Some (Printf.sprintf "delta.s%d->s%d" l.ser l.next, l.us)
           | Delay_egress -> Some (Printf.sprintf "delta.s%d->dc%d" l.ser j.dst, l.us)
           | Journey.Proxy_order -> Some (Printf.sprintf "proxy.dc%d" j.dst, l.us)
           | Attach | Hop | Egress -> None)
         j.legs
      @
      if transit_excess = 0 then []
      else [ (Printf.sprintf "route.dc%d->dc%d" j.origin j.dst, transit_excess) ])
  in
  { j; optimal_us = opt; gap_us = j.visibility_us - opt; blame; culprits }

let identity b = (b.j.Journey.origin, b.j.Journey.oseq, b.j.Journey.dst)

(* largest gap first, ties broken by identity so the order is deterministic *)
let by_gap_order a b =
  match compare b.gap_us a.gap_us with 0 -> compare (identity a) (identity b) | c -> c

let analyze ~optimal (r : Journey.report) =
  let blamed = List.map (blame_journey ~optimal) r.Journey.journeys in
  let mismatches =
    List.filter_map
      (fun b ->
        let total = List.fold_left (fun acc (_, us) -> acc + us) 0 b.blame in
        if total = b.gap_us then None
        else
          Some
            (Printf.sprintf "dc%d#%d -> dc%d: blame parts sum %dus, gap %dus" b.j.Journey.origin
               b.j.Journey.oseq b.j.Journey.dst total b.gap_us))
      blamed
  in
  let gap_hist = Stats.Hdr.create () in
  List.iter (fun b -> Stats.Hdr.add gap_hist b.gap_us) blamed;
  let per_part =
    List.map
      (fun part ->
        let journeys, total_us, p50_ms, p99_ms =
          Journey.summary
            (List.filter_map
               (fun b -> match List.assoc part b.blame with 0 -> None | us -> Some us)
               blamed)
        in
        { part; journeys; total_us; p50_ms; p99_ms })
      parts
  in
  (* the tail: the slowest tenth of journeys by gap (at least one), by
     position — an identity's twin on another tree is tail only if it
     ranks there itself *)
  let by_gap = List.sort by_gap_order blamed in
  let n = List.length blamed in
  let tail = List.filteri (fun i _ -> i < Stdlib.max 1 (n / 10)) by_gap in
  let tail_threshold_us = match List.rev tail with [] -> 0 | b :: _ -> b.gap_us in
  let order = ref [] in
  let ctbl = Hashtbl.create 32 in
  let add ~tailed (b : blamed) =
    List.iter
      (fun (name, us) ->
        let js, tot, tl =
          match Hashtbl.find_opt ctbl name with
          | Some x -> x
          | None ->
            order := name :: !order;
            (0, 0, 0)
        in
        Hashtbl.replace ctbl name (if tailed then (js, tot, tl + us) else (js + 1, tot + us, tl)))
      b.culprits
  in
  List.iter (add ~tailed:false) blamed;
  List.iter (add ~tailed:true) tail;
  let culprits =
    List.rev_map
      (fun name ->
        let c_journeys, c_total_us, c_tail_us = Hashtbl.find ctbl name in
        { culprit = name; c_journeys; c_total_us; c_tail_us })
      !order
    |> List.sort (fun a b ->
           match compare b.c_tail_us a.c_tail_us with
           | 0 -> (
             match compare b.c_total_us a.c_total_us with
             | 0 -> String.compare a.culprit b.culprit
             | c -> c)
           | c -> c)
  in
  {
    blamed;
    by_gap;
    per_part;
    culprits;
    gap_hist;
    tail_threshold_us;
    optimal_total_us = List.fold_left (fun acc b -> acc + b.optimal_us) 0 blamed;
    mismatches = r.Journey.mismatches @ mismatches;
    fallback_applied = r.Journey.fallback_applied;
    incomplete = r.Journey.incomplete;
  }

let check r = match r.mismatches with [] -> Ok () | ms -> Error ms

let top_k r ~k = List.filteri (fun i _ -> i < k) r.by_gap

(* ---- rendering ------------------------------------------------------------ *)

let ms us = float_of_int us /. 1000.

let table r =
  let gap_total = List.fold_left (fun acc b -> acc + b.gap_us) 0 r.blamed in
  let tbl =
    Stats.Table.create
      ~title:
        (Printf.sprintf "optimality-gap blame (%d journeys, gap total %.1f ms over optimal %.1f ms)"
           (List.length r.blamed) (ms gap_total) (ms r.optimal_total_us))
      ~columns:[ "part"; "journeys"; "total ms"; "share of gap"; "p50 ms"; "p99 ms"; "" ]
  in
  List.iter
    (fun s ->
      let share =
        if gap_total = 0 then 0. else 100. *. float_of_int s.total_us /. float_of_int gap_total
      in
      let bar = String.make (int_of_float (Float.max 0. share /. 2.5)) '#' in
      Stats.Table.add_row tbl
        [
          part_name s.part;
          string_of_int s.journeys;
          Printf.sprintf "%.1f" (ms s.total_us);
          Printf.sprintf "%.1f%%" share;
          (if s.journeys = 0 then "-" else Printf.sprintf "%.2f" s.p50_ms);
          (if s.journeys = 0 then "-" else Printf.sprintf "%.2f" s.p99_ms);
          bar;
        ])
    r.per_part;
  tbl

let culprit_table r =
  let tbl =
    Stats.Table.create
      ~title:
        (Printf.sprintf "culprit ranking (tail = gap >= %.1f ms, the slowest tenth)"
           (ms r.tail_threshold_us))
      ~columns:[ "culprit"; "journeys"; "total ms"; "tail ms"; "" ]
  in
  let tail_max =
    List.fold_left (fun acc c -> Stdlib.max acc c.c_tail_us) 0 r.culprits
  in
  List.iter
    (fun c ->
      let bar =
        if tail_max <= 0 then ""
        else String.make (40 * Stdlib.max 0 c.c_tail_us / tail_max) '#'
      in
      Stats.Table.add_row tbl
        [
          c.culprit;
          string_of_int c.c_journeys;
          Printf.sprintf "%.1f" (ms c.c_total_us);
          Printf.sprintf "%.1f" (ms c.c_tail_us);
          bar;
        ])
    r.culprits;
  tbl

let render_journey b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "dc%d#%d -> dc%d  vis %.3fms = optimal %.3f + gap %.3f\n" b.j.Journey.origin
       b.j.Journey.oseq b.j.Journey.dst (ms b.j.Journey.visibility_us) (ms b.optimal_us)
       (ms b.gap_us));
  let legs =
    List.map
      (fun (l : Journey.leg) ->
        match l.segment with
        | Journey.Sink_hold -> Printf.sprintf "sink %.3f" (ms l.us)
        | Attach -> Printf.sprintf "attach %.3f" (ms l.us)
        | Chain -> Printf.sprintf "ser%d %.3f" l.ser (ms l.us)
        | Delay_hop -> Printf.sprintf "delta s%d->s%d %.3f" l.ser l.next (ms l.us)
        | Hop -> Printf.sprintf "hop s%d->s%d %.3f" l.ser l.next (ms l.us)
        | Delay_egress -> Printf.sprintf "delta s%d->egress %.3f" l.ser (ms l.us)
        | Egress -> Printf.sprintf "egress s%d %.3f" l.ser (ms l.us)
        | Journey.Proxy_order -> Printf.sprintf "proxy %.3f" (ms l.us))
      b.j.legs
  in
  Buffer.add_string buf ("    " ^ String.concat " | " legs ^ "\n");
  Buffer.contents buf

let gap_csv r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "origin,oseq,dst,path,visibility_us,optimal_us,gap_us,sink_hold_us,serializer_us,delta_us,proxy_order_us,transit_excess_us\n";
  List.iter
    (fun b ->
      let part p = List.assoc p b.blame in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d\n" b.j.Journey.origin
           b.j.Journey.oseq b.j.Journey.dst
           (String.concat ">" (List.map (Printf.sprintf "s%d") (Journey.path b.j)))
           b.j.Journey.visibility_us b.optimal_us b.gap_us (part Sink_hold) (part Serializer)
           (part Delta) (part Proxy_order) (part Transit_excess)))
    r.blamed;
  Buffer.contents buf

(* a single blame number moving flips the digest *)
let digest r = Sim.Fnv.digest (gap_csv r)

let render ?(top = 5) r =
  let buf = Buffer.create 4096 in
  let n = List.length r.blamed in
  Buffer.add_string buf
    (Printf.sprintf
       "blame: %d complete journeys (%d fallback, %d in flight); gap = visibility - shortest \
        bulk path; digest %s\n"
       n r.fallback_applied r.incomplete (digest r));
  (if Stats.Hdr.count r.gap_hist > 0 then
     Buffer.add_string buf
       (Printf.sprintf "gap ms: mean %.3f  p50 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n"
          (Stats.Hdr.mean r.gap_hist /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 50. /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 99. /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 99.9 /. 1000.)
          (ms (Stats.Hdr.max_value r.gap_hist))));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Table.render (table r));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Table.render (culprit_table r));
  Buffer.add_char buf '\n';
  if top > 0 && n > 0 then begin
    Buffer.add_string buf (Printf.sprintf "top %d journeys by gap:\n" (Stdlib.min top n));
    List.iteri
      (fun i b -> Buffer.add_string buf (Printf.sprintf "  #%d %s" (i + 1) (render_journey b)))
      (top_k r ~k:top)
  end;
  (match r.mismatches with
  | [] -> ()
  | ms ->
    Buffer.add_string buf (Printf.sprintf "TILING MISMATCHES (%d):\n" (List.length ms));
    List.iter (fun m -> Buffer.add_string buf ("  " ^ m ^ "\n")) ms);
  Buffer.contents buf

(* registration names stay literal (or sprintf-literal) at the call site:
   saturn-lint's counter-name pass globs these against the smoke baseline *)
let fold_counters r registry =
  Stats.Registry.incr_by
    (Stats.Registry.counter registry "blame.journeys")
    (List.length r.blamed);
  Stats.Registry.incr_by
    (Stats.Registry.counter registry "blame.gap.us")
    (List.fold_left (fun acc b -> acc + b.gap_us) 0 r.blamed);
  Stats.Registry.incr_by (Stats.Registry.counter registry "blame.optimal.us") r.optimal_total_us;
  List.iter
    (fun s ->
      Stats.Registry.incr_by
        (Stats.Registry.counter registry (Printf.sprintf "blame.part.%s.us" (part_name s.part)))
        s.total_us)
    r.per_part
