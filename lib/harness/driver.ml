type result = {
  throughput : float;
  ops_completed : int;
  duration : Sim.Time.t;
}

let make_clients ~dc_sites ~per_dc =
  List.concat
    (List.init (Array.length dc_sites) (fun dc ->
         List.init per_dc (fun i ->
             Client.create ~id:((dc * 1_000_000) + i) ~home_site:dc_sites.(dc) ~preferred_dc:dc)))

let run engine api metrics ~clients ~next_op ~warmup ~measure ~cooldown =
  let end_at = Sim.Time.add warmup (Sim.Time.add measure cooldown) in
  let window_start = warmup and window_end = Sim.Time.add warmup measure in
  Metrics.set_window metrics ~start_at:window_start ~end_at:window_end;
  let in_window () =
    let now = Sim.Engine.now engine in
    Sim.Time.compare now window_start >= 0 && Sim.Time.compare now window_end <= 0
  in
  let running () = Sim.Time.compare (Sim.Engine.now engine) end_at < 0 in
  let completed_op (c : Client.t) =
    c.Client.total <- c.Client.total + 1;
    if in_window () then c.Client.completed <- c.Client.completed + 1
  in
  (* Each client's continuations are made once, here. The loop is closed,
     so a client has at most one op outstanding, and a remote read keeps
     its key in the client's one cell between its legs. *)
  let start (c : Client.t) =
    let remote_key = ref 0 in
    let rec loop () =
      if running () then begin
        match next_op c with
        | Workload.Op.Read { key } -> api.Api.read c ~key ~k:read_done
        | Workload.Op.Write { key; value } -> api.Api.update c ~key ~value ~k:op_done
        | Workload.Op.Remote_read { key; at } ->
          (* migrate to the holder, read there, and come home: one logical
             remote read *)
          remote_key := key;
          api.Api.migrate c ~dest_dc:at ~k:remote_read
      end
    and op_done () =
      completed_op c;
      loop ()
    and read_done _ = op_done ()
    and remote_read () = api.Api.read c ~key:!remote_key ~k:go_home
    and go_home _ = api.Api.migrate c ~dest_dc:c.Client.preferred_dc ~k:op_done in
    api.Api.attach c ~dc:c.Client.preferred_dc ~k:loop
  in
  List.iter start clients;
  Sim.Engine.run ~until:end_at engine;
  api.Api.stop ();
  (* drain whatever remains so visibility CDFs include late arrivals (the
     window filter keeps measurements honest) *)
  Sim.Engine.run ~until:(Sim.Time.add end_at (Sim.Time.of_sec 2.)) engine;
  let ops = List.fold_left (fun acc c -> acc + c.Client.completed) 0 clients in
  {
    throughput = float_of_int ops /. Sim.Time.to_sec_float measure;
    ops_completed = ops;
    duration = measure;
  }

let synthetic engine api metrics (spec : Build.spec) ~seed ~per_dc ~cooldown =
  let { Build.topo; dc_sites; rmap; _ } = spec in
  let clients = make_clients ~dc_sites ~per_dc in
  let syn =
    Workload.Synthetic.create
      {
        Workload.Synthetic.default with
        n_keys = Kvstore.Replica_map.n_keys rmap;
        read_ratio = 0.5;
        seed;
      }
      ~rmap ~topo ~dc_sites
  in
  run engine api metrics ~clients
    ~next_op:(fun c -> Workload.Synthetic.next syn ~dc:c.Client.preferred_dc)
    ~warmup:(Sim.Time.of_ms 200) ~measure:(Sim.Time.of_sec 1.) ~cooldown
