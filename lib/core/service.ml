(* A label on the tree, named by its origin datacenter and that
   datacenter's label count [oseq]. [targets] is the bitmask over
   datacenter ids computed at input: bit [dc] set when [dc] must receive
   the label. One record serves every hop: a serializer forwards it
   toward the neighbours with a target behind them, except back toward
   the origin. *)
type msg = { origin : int; oseq : int; label : Label.t; targets : int }

(* sender ids, dense engine-scoped ints *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

type attach_links = {
  in_data : Sim.Link.t;
  in_ack : Sim.Link.t;
  out_data : Sim.Link.t;
  out_ack : Sim.Link.t;
}

type t = {
  engine : Sim.Engine.t;
  topo : Sim.Topology.t;
  config : Config.t;
  instance : int; (* disambiguates uid-keyed spans across service epochs *)
  deliver : dc:int -> Label.t -> unit;
  interest : Label.t -> int;
  mutable chains : msg Chain.t array;
  (* every serializer ingress channel's receiver, by its sender's id: a
     chain confirms a committed label to the channel it arrived on *)
  ingress : msg Reliable_fifo.receiver Int_tbl.t;
  (* serializer and datacenter id spaces are dense, so the per-hop routing
     tables are plain arrays indexed [from].[to] — no (int*int) hashing on
     the per-label path *)
  edge_senders : msg Reliable_fifo.sender option array array;
  edge_links : (Sim.Link.t * Sim.Link.t) option array array; (* a->b: data, ack *)
  dc_in_senders : msg Reliable_fifo.sender array;
  dc_out_senders : Label.t Reliable_fifo.sender option array;
  mutable dc_links : attach_links array; (* dc <-> home-serializer channels *)
  uid_counter : int array;
  input_counter : Stats.Registry.counter;
  delivered_counter : Stats.Registry.counter;
  head_change_counter : Stats.Registry.counter;
  mutable all_senders : (unit -> unit) list; (* stop functions *)
  (* per serializer: its local datacenters ascending, and beside each
     neighbour the mask of datacenters behind it, in [Tree.neighbors]
     order *)
  local_dcs : int array array;
  neighbours : int array array;
  behind : int array array;
  (* δ of each hop, read once from the config: per datacenter its egress
     hop, per serializer the hop to each neighbour (parallel to
     [neighbours]) *)
  egress_delta : Sim.Time.t array;
  hop_delta : Sim.Time.t array array;
  (* the δ waits, one delay line per hop, indexed as the deltas: δ is
     fixed, so due times never decrease *)
  mutable egress_lines : msg Sim.Delay_line.t array;
  mutable hop_lines : msg Sim.Delay_line.t array array;
}

let resend_period lat = Sim.Time.add (Sim.Time.add lat lat) (Sim.Time.of_ms 50)

let probe_delay t s delta =
  if Sim.Time.compare delta Sim.Time.zero > 0 then
    Sim.Probe.delay_wait ~at:(Sim.Engine.now t.engine) ~serializer:s ~us:(Sim.Time.to_us delta)

let positive delta = Sim.Time.compare delta Sim.Time.zero > 0

(* [Engine.schedule] clamped negative delays to zero *)
let due delta = Sim.Time.max delta Sim.Time.zero

let mask dcs = List.fold_left (fun m dc -> m lor (1 lsl dc)) 0 dcs

(* a datacenter mask must fit an OCaml int with room to spare *)
let max_dcs = 62

(* In a tree, the neighbour with the origin behind it is the edge the
   label arrived on, and the targets behind every other neighbour are the
   ones the sender's own route meant for this subtree. *)
let route t s msg =
  let origin = msg.origin and oseq = msg.oseq in
  let now = Sim.Engine.now t.engine in
  if Sim.Probe.active () then begin
    Sim.Probe.ser_commit ~at:now ~ser:s ~origin ~oseq ~epoch:t.instance;
    Sim.Span.end_ ~at:now Sim.Span.Sk_chain ~origin ~seq:oseq ~aux:t.instance ~site:s ~peer:(-1)
      ~epoch:t.instance
  end;
  let local = t.local_dcs.(s) in
  for i = 0 to Array.length local - 1 do
    let dc = local.(i) in
    if msg.targets land (1 lsl dc) <> 0 then begin
      let delta = t.egress_delta.(dc) in
      if Sim.Probe.active () then begin
        Sim.Probe.serializer_deliver ~at:now ~dc;
        probe_delay t s delta;
        if positive delta then
          Sim.Span.begin_ ~at:now Sim.Span.Sk_delay_egress ~origin ~seq:oseq ~aux:t.instance
            ~site:s ~peer:dc ~epoch:t.instance
      end;
      Sim.Delay_line.push t.egress_lines.(dc) ~at:(Sim.Time.add now (due delta)) msg
    end
  done;
  let neighbours = t.neighbours.(s) and behind = t.behind.(s) and deltas = t.hop_delta.(s) in
  for i = 0 to Array.length neighbours - 1 do
    let behind = behind.(i) in
    if behind land (1 lsl origin) = 0 && msg.targets land behind <> 0 then begin
      let b = neighbours.(i) in
      let delta = deltas.(i) in
      if Sim.Probe.active () then begin
        Sim.Probe.serializer_hop ~at:now ~from_ser:s ~to_ser:b;
        probe_delay t s delta;
        if positive delta then
          Sim.Span.begin_ ~at:now Sim.Span.Sk_delay_hop ~origin ~seq:oseq ~aux:t.instance ~site:s
            ~peer:b ~epoch:t.instance
      end;
      Sim.Delay_line.push t.hop_lines.(s).(i) ~at:(Sim.Time.add now (due delta)) msg
    end
  done

(* the egress δ wait of datacenter [dc] attached at serializer [s]; the
   line's handler is made once, here *)
let egress_line t ~s ~dc ~delta sender =
  Sim.Delay_line.create t.engine (fun msg ->
      if Sim.Probe.active () then begin
        let at = Sim.Engine.now t.engine in
        let origin = msg.origin and oseq = msg.oseq in
        if positive delta then
          Sim.Span.end_ ~at Sim.Span.Sk_delay_egress ~origin ~seq:oseq ~aux:t.instance ~site:s
            ~peer:dc ~epoch:t.instance;
        let l = msg.label in
        Sim.Span.begin_ ~at Sim.Span.Sk_egress ~origin:l.Label.src_dc
          ~seq:(Sim.Time.to_us l.Label.ts) ~aux:l.Label.src_gear ~site:s ~peer:dc
          ~epoch:t.instance
      end;
      Reliable_fifo.send sender ~size_bytes:Label.size_bytes msg.label)

(* the δ wait on the tree hop [s -> b] *)
let hop_line t ~s ~b ~delta sender =
  Sim.Delay_line.create t.engine (fun msg ->
      if Sim.Probe.active () then begin
        let at = Sim.Engine.now t.engine in
        let origin = msg.origin and oseq = msg.oseq in
        if positive delta then
          Sim.Span.end_ ~at Sim.Span.Sk_delay_hop ~origin ~seq:oseq ~aux:t.instance ~site:s
            ~peer:b ~epoch:t.instance;
        Sim.Span.begin_ ~at Sim.Span.Sk_hop ~origin ~seq:oseq ~aux:t.instance ~site:s ~peer:b
          ~epoch:t.instance
      end;
      Reliable_fifo.send sender ~size_bytes:Label.size_bytes msg)

(* the hop between neighbouring replicas of one serializer chain *)
let intra_latency = Sim.Time.of_us 300

let create engine ~topo ~config ~interest ~deliver ~observer ?(serializer_replicas = 1)
    ?(name = "service") ?(instance = 0) () =
  let { Stats.Observer.registry; series } = observer in
  let tree = Config.tree config in
  let n_ser = Tree.n_serializers tree in
  let n_dcs = Tree.n_dcs tree in
  if n_dcs > max_dcs then
    invalid_arg (Printf.sprintf "Service.create: more than %d datacenters" max_dcs);
  let ser_ingress =
    Array.init n_ser (fun s ->
        Option.map (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.ser%d.ingress" s)) series)
  in
  let t =
    {
      engine;
      topo;
      config;
      instance;
      deliver;
      interest;
      chains = [||];
      ingress = Int_tbl.create 16;
      edge_senders = Array.init n_ser (fun _ -> Array.make n_ser None);
      edge_links = Array.init n_ser (fun _ -> Array.make n_ser None);
      dc_in_senders = Array.make n_dcs (Reliable_fifo.sender engine ~resend_period:(Sim.Time.of_ms 100));
      dc_out_senders = Array.make n_dcs None;
      dc_links = [||];
      uid_counter = Array.make n_dcs 0;
      input_counter = Stats.Registry.counter registry (name ^ ".labels_input");
      delivered_counter = Stats.Registry.counter registry (name ^ ".labels_delivered");
      head_change_counter = Stats.Registry.counter registry (name ^ ".head_changes");
      all_senders = [];
      local_dcs =
        Array.init n_ser (fun s -> Array.of_list (List.sort_uniq Int.compare (Tree.dcs_at tree s)));
      neighbours = Array.init n_ser (fun s -> Array.of_list (Tree.neighbors tree s));
      behind =
        Array.init n_ser (fun s ->
            Array.of_list
              (List.map (fun b -> mask (Tree.dcs_behind tree ~from:s ~via:b)) (Tree.neighbors tree s)));
      egress_delta =
        Array.init n_dcs (fun dc ->
            Config.delay config ~from:(Tree.serializer_of tree ~dc) ~hop:(To_dc dc));
      hop_delta =
        Array.init n_ser (fun s ->
            Array.of_list
              (List.map
                 (fun b -> Config.delay config ~from:s ~hop:(To_serializer b))
                 (Tree.neighbors tree s)));
      egress_lines = [||];
      hop_lines = [||];
    }
  in
  t.chains <-
    Array.init n_ser (fun s ->
        Chain.create engine ~replicas:serializer_replicas ~intra_latency
          ~deliver:(fun msg -> route t s msg)
          ~confirm:(fun ~peer ~seq -> Reliable_fifo.confirm (Int_tbl.find t.ingress peer) ~peer ~seq)
          ());
  let register_sender s = t.all_senders <- (fun () -> Reliable_fifo.stop s) :: t.all_senders in
  let ingress_receivers : msg Reliable_fifo.receiver list array = Array.make n_ser [] in
  (* chain ingress shared by every inbound channel of serializer [s].
     Sequencing state of the receivers is modelled as surviving replica
     crashes: in a real deployment the healed chain re-syncs senders from
     its committed prefix, and the chain's dedup-by-origin already gives the
     exactly-once commit that such a re-sync provides. *)
  let ingest s msg ~peer ~seq =
    Chain.input t.chains.(s) ~origin:msg.origin ~oseq:msg.oseq msg ~peer ~seq
  in
  (* [from] names the inbound channel so the span layer can close the right
     in-flight segment (attach from a datacenter, hop from a serializer)
     and open the chain span at the same instant *)
  let chain_ingress s ~from sender =
    let deliver msg ~peer ~seq =
      if Sim.Probe.active () then begin
        let origin = msg.origin and oseq = msg.oseq in
        let at = Sim.Engine.now engine in
        (match from with
        | `Dc dc ->
          Sim.Span.end_ ~at Sim.Span.Sk_attach ~origin ~seq:oseq ~aux:instance ~site:dc ~peer:s
            ~epoch:instance
        | `Ser x ->
          Sim.Span.end_ ~at Sim.Span.Sk_hop ~origin ~seq:oseq ~aux:instance ~site:x ~peer:s
            ~epoch:instance);
        Sim.Span.begin_ ~at Sim.Span.Sk_chain ~origin ~seq:oseq ~aux:instance ~site:s ~peer:(-1)
          ~epoch:instance
      end;
      (match ser_ingress.(s) with
      | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now engine)
      | None -> ());
      ingest s msg ~peer ~seq
    in
    let recv = Reliable_fifo.receiver_deferred engine ~deliver in
    ingress_receivers.(s) <- recv :: ingress_receivers.(s);
    Int_tbl.replace t.ingress (Reliable_fifo.sender_id sender) recv;
    recv
  in
  (* a head crash loses sequence numbers the dead head never replicated;
     replaying unconfirmed channel messages re-ingests them exactly once *)
  Array.iteri
    (fun s chain ->
      Chain.set_on_head_change chain (fun () ->
          Stats.Registry.incr t.head_change_counter;
          if Sim.Probe.active () then Sim.Probe.head_change ~at:(Sim.Engine.now engine) ~ser:s;
          List.iter
            (fun recv -> Reliable_fifo.redeliver_unconfirmed recv ~deliver:(ingest s))
            ingress_receivers.(s)))
    t.chains;
  (* serializer-to-serializer edges *)
  List.iter
    (fun (a, b) ->
      List.iter
        (fun (x, y) ->
          let lat = Sim.Topology.latency topo (Config.site_of_serializer config x) (Config.site_of_serializer config y) in
          let data = Sim.Link.create engine ~latency:lat () in
          let ack = Sim.Link.create engine ~latency:lat () in
          t.edge_links.(x).(y) <- Some (data, ack);
          let sender = Reliable_fifo.sender engine ~resend_period:(resend_period lat) in
          Reliable_fifo.connect sender ~data ~ack (chain_ingress y ~from:(`Ser x) sender);
          t.edge_senders.(x).(y) <- Some sender;
          register_sender sender)
        [ (a, b); (b, a) ])
    (Tree.edges tree);
  (* datacenter attachments: ingress (sink -> serializer) and egress
     (serializer -> remote proxy) *)
  t.dc_links <-
    Array.init n_dcs (fun dc ->
        let s = Tree.serializer_of tree ~dc in
        let lat = Sim.Topology.latency topo (Config.site_of_dc config dc) (Config.site_of_serializer config s) in
        let data = Sim.Link.create engine ~latency:lat () in
        let ack = Sim.Link.create engine ~latency:lat () in
        let sender = Reliable_fifo.sender engine ~resend_period:(resend_period lat) in
        Reliable_fifo.connect sender ~data ~ack (chain_ingress s ~from:(`Dc dc) sender);
        t.dc_in_senders.(dc) <- sender;
        register_sender sender;
        let out_data = Sim.Link.create engine ~latency:lat () in
        let out_ack = Sim.Link.create engine ~latency:lat () in
        let out_sender = Reliable_fifo.sender engine ~resend_period:(resend_period lat) in
        let out_recv =
          Reliable_fifo.receiver engine ~deliver:(fun label ->
              Stats.Registry.incr t.delivered_counter;
              if Sim.Probe.active () then
                Sim.Span.end_ ~at:(Sim.Engine.now engine) Sim.Span.Sk_egress
                  ~origin:label.Label.src_dc ~seq:(Sim.Time.to_us label.Label.ts)
                  ~aux:label.Label.src_gear ~site:s ~peer:dc ~epoch:instance;
              deliver ~dc label)
        in
        Reliable_fifo.connect out_sender ~data:out_data ~ack:out_ack out_recv;
        t.dc_out_senders.(dc) <- Some out_sender;
        register_sender out_sender;
        { in_data = data; in_ack = ack; out_data; out_ack });
  t.egress_lines <-
    Array.init n_dcs (fun dc ->
        match t.dc_out_senders.(dc) with
        | Some sender ->
          egress_line t ~s:(Tree.serializer_of tree ~dc) ~dc ~delta:t.egress_delta.(dc) sender
        | None -> assert false);
  t.hop_lines <-
    Array.init n_ser (fun s ->
        Array.mapi
          (fun i b ->
            match t.edge_senders.(s).(b) with
            | Some sender -> hop_line t ~s ~b ~delta:t.hop_delta.(s).(i) sender
            | None -> assert false)
          t.neighbours.(s));
  (match series with
  | Some sr ->
    (* per-serializer backlog: unacked messages on every reliable channel
       feeding serializer [s] (sink attachments + inbound tree edges); the
       feeder lists are resolved here, once — the pull closures do single
       reads, no hash iteration *)
    for s = 0 to n_ser - 1 do
      let dc_feeds = List.map (fun dc -> t.dc_in_senders.(dc)) (Tree.dcs_at tree s) in
      let edge_feeds = List.filter_map (fun x -> t.edge_senders.(x).(s)) (Tree.neighbors tree s) in
      Stats.Series.sample sr
        (Printf.sprintf "series.ser%d.pending" s)
        (fun () ->
          let n =
            List.fold_left (fun acc snd -> acc + Reliable_fifo.unacked snd) 0 dc_feeds
            + List.fold_left (fun acc snd -> acc + Reliable_fifo.unacked snd) 0 edge_feeds
          in
          float_of_int n)
    done;
    (* metadata-plane wire depth: label-bearing data links only (tree edges
       + attach ingress/egress), resolved into a flat list up front *)
    let meta_links =
      let edges =
        List.concat_map
          (fun (a, b) ->
            List.filter_map
              (fun (x, y) -> Option.map fst t.edge_links.(x).(y))
              [ (a, b); (b, a) ])
          (Tree.edges tree)
      in
      let attach =
        Array.to_list t.dc_links
        |> List.concat_map (fun l -> [ l.in_data; l.out_data ])
      in
      edges @ attach
    in
    Stats.Series.sample sr "series.link.meta.in_flight" (fun () ->
        float_of_int
          (List.fold_left (fun acc l -> acc + Sim.Link.in_flight_count l) 0 meta_links))
  | None -> ());
  t

let input t ~dc label =
  Stats.Registry.incr t.input_counter;
  let targets = t.interest label land lnot (1 lsl dc) in
  let oseq = if targets = 0 then -1 else t.uid_counter.(dc) in
  if Sim.Probe.active () then begin
    let at = Sim.Engine.now t.engine in
    Sim.Probe.label_forward ~at ~dc ~gear:label.Label.src_gear ~ts:(Sim.Time.to_us label.Label.ts)
      ~oseq ~inst:t.instance ~epoch:t.instance;
    if oseq >= 0 then
      Sim.Span.begin_ ~at Sim.Span.Sk_attach ~origin:dc ~seq:oseq ~aux:t.instance ~site:dc
        ~epoch:t.instance
        ~peer:(Tree.serializer_of (Config.tree t.config) ~dc)
  end;
  if targets <> 0 then begin
    t.uid_counter.(dc) <- oseq + 1;
    Reliable_fifo.send t.dc_in_senders.(dc) ~size_bytes:Label.size_bytes
      { origin = dc; oseq; label; targets }
  end

let config t = t.config

let crash_replica t ~serializer ~replica = Chain.crash_replica t.chains.(serializer) replica

let crash_serializer t s =
  let chain = t.chains.(s) in
  (* crash replicas until none remain; ids are original indices *)
  let rec go i =
    if not (Chain.is_down chain) then
      if i >= 16 then ()
      else begin
        (try Chain.crash_replica chain i with Invalid_argument _ -> ());
        go (i + 1)
      end
  in
  go 0

let serializer_down t s = Chain.is_down t.chains.(s)

let edge_links_of t x y =
  let n = Array.length t.edge_links in
  if x < 0 || x >= n || y < 0 || y >= n then None else t.edge_links.(x).(y)

let cut_edge t a b =
  List.iter
    (fun (x, y) ->
      match edge_links_of t x y with
      | Some (data, ack) ->
        Sim.Link.cut data;
        Sim.Link.cut ack
      | None -> invalid_arg "Service.cut_edge: not an edge")
    [ (a, b); (b, a) ]

let restore_edge t a b =
  List.iter
    (fun (x, y) ->
      match edge_links_of t x y with
      | Some (data, ack) ->
        Sim.Link.restore data;
        Sim.Link.restore ack
      | None -> invalid_arg "Service.restore_edge: not an edge")
    [ (a, b); (b, a) ]

let labels_input t = Stats.Registry.counter_value t.input_counter
let labels_delivered t = Stats.Registry.counter_value t.delivered_counter

let n_serializers t = Array.length t.chains

let edge_link_list t =
  (* index-order iteration over the dense table is already (from, to)-sorted *)
  let acc = ref [] in
  let n = Array.length t.edge_links in
  for x = n - 1 downto 0 do
    for y = n - 1 downto 0 do
      match t.edge_links.(x).(y) with
      | Some links -> acc := ((x, y), links) :: !acc
      | None -> ()
    done
  done;
  !acc

let attach_links t ~dc = t.dc_links.(dc)

let edge_traffic t =
  List.map (fun (edge, (data, _)) -> (edge, Sim.Link.delivered_count data)) (edge_link_list t)

let total_label_hops t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (edge_traffic t) + labels_delivered t
let shutdown t = List.iter (fun stop -> stop ()) t.all_senders
