(* Tests for the metadata transport: reliable FIFO channels, chain
   replication and the serializer tree service. *)

let qtest = QCheck_alcotest.to_alcotest

(* a deferred receiver whose consumer [f] confirms each message on arrival *)
let confirming_receiver e f =
  let confirm = ref (fun ~peer:_ ~seq:_ -> ()) in
  let recv =
    Saturn.Reliable_fifo.receiver_deferred e ~deliver:(fun m ~peer ~seq ->
        f m;
        !confirm ~peer ~seq)
  in
  confirm := Saturn.Reliable_fifo.confirm recv;
  recv

let make_channel ?(latency = Sim.Time.of_ms 5) ?(deferred = false) e received =
  let data = Sim.Link.create e ~latency () in
  let ack = Sim.Link.create e ~latency () in
  let recv =
    if deferred then confirming_receiver e (fun m -> received := m :: !received)
    else Saturn.Reliable_fifo.receiver e ~deliver:(fun m -> received := m :: !received)
  in
  let sender = Saturn.Reliable_fifo.sender e ~resend_period:(Sim.Time.of_ms 30) in
  Saturn.Reliable_fifo.connect sender ~data ~ack recv;
  (sender, recv, data, ack)

let test_fifo_basic () =
  let e = Sim.Engine.create () in
  let received = ref [] in
  let sender, recv, _, _ = make_channel e received in
  List.iter (Saturn.Reliable_fifo.send sender ~size_bytes:0) [ 1; 2; 3 ];
  Sim.Engine.run ~until:(Sim.Time.of_ms 100) e;
  Saturn.Reliable_fifo.stop sender;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ] (List.rev !received);
  Alcotest.(check int) "all acked" 0 (Saturn.Reliable_fifo.unacked sender);
  Alcotest.(check int) "delivered counter" 3 (Saturn.Reliable_fifo.delivered recv)

let test_fifo_survives_cut () =
  let e = Sim.Engine.create () in
  let received = ref [] in
  let sender, _, data, ack = make_channel e received in
  Saturn.Reliable_fifo.send sender ~size_bytes:0 1;
  (* cut mid-flight: the message is lost and must be retransmitted *)
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () ->
      Sim.Link.cut data;
      Sim.Link.cut ack;
      Saturn.Reliable_fifo.send sender ~size_bytes:0 2);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 40) (fun () ->
      Sim.Link.restore data;
      Sim.Link.restore ack);
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
  Saturn.Reliable_fifo.stop sender;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "no loss, no reorder, no dup" [ 1; 2 ] (List.rev !received)

let prop_fifo_exactly_once_under_cuts =
  QCheck.Test.make ~name:"reliable fifo is exactly-once in order under cuts" ~count:40
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, n) ->
      let e = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let received = ref [] in
      let sender, _, data, ack = make_channel e received in
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 500)) (fun () ->
            Saturn.Reliable_fifo.send sender ~size_bytes:0 i)
      done;
      (* random cut/restore pulses *)
      for _ = 1 to 4 do
        let at = Sim.Rng.int rng 20_000 in
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us at) (fun () ->
            Sim.Link.cut data;
            Sim.Link.cut ack);
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (at + 3_000)) (fun () ->
            Sim.Link.restore data;
            Sim.Link.restore ack)
      done;
      Sim.Engine.run ~until:(Sim.Time.of_sec 2.) e;
      Saturn.Reliable_fifo.stop sender;
      Sim.Engine.run e;
      List.rev !received = List.init n (fun i -> i + 1))

let test_fifo_deferred_ack () =
  (* without confirmation the sender keeps the backlog *)
  let e = Sim.Engine.create () in
  let confirms = ref [] in
  let data = Sim.Link.create e ~latency:(Sim.Time.of_ms 1) () in
  let ack = Sim.Link.create e ~latency:(Sim.Time.of_ms 1) () in
  let recv =
    Saturn.Reliable_fifo.receiver_deferred e ~deliver:(fun m ~peer ~seq ->
        confirms := (m, peer, seq) :: !confirms)
  in
  let sender = Saturn.Reliable_fifo.sender e ~resend_period:(Sim.Time.of_ms 500) in
  Saturn.Reliable_fifo.connect sender ~data ~ack recv;
  Saturn.Reliable_fifo.send sender ~size_bytes:0 "x";
  Sim.Engine.run ~until:(Sim.Time.of_ms 50) e;
  Alcotest.(check int) "unacked until confirmed" 1 (Saturn.Reliable_fifo.unacked sender);
  (match !confirms with
  | [ (_, peer, seq) ] -> Saturn.Reliable_fifo.confirm recv ~peer ~seq
  | _ -> Alcotest.fail "expected one delivery");
  Sim.Engine.run ~until:(Sim.Time.of_ms 100) e;
  Saturn.Reliable_fifo.stop sender;
  Sim.Engine.run e;
  Alcotest.(check int) "acked after confirm" 0 (Saturn.Reliable_fifo.unacked sender)

let test_fifo_reconnect () =
  (* the first receiver's wires die with everything in flight; connecting
     to a new receiver over fresh wires retransmits the backlog there *)
  let e = Sim.Engine.create () in
  let first = ref [] and second = ref [] in
  let sender, _, data, ack = make_channel e first in
  Saturn.Reliable_fifo.send sender ~size_bytes:0 1;
  Saturn.Reliable_fifo.send sender ~size_bytes:0 2;
  Sim.Link.cut data;
  Sim.Link.cut ack;
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () ->
      let recv = Saturn.Reliable_fifo.receiver e ~deliver:(fun m -> second := m :: !second) in
      let wire () = Sim.Link.create e ~latency:(Sim.Time.of_ms 5) () in
      Saturn.Reliable_fifo.connect sender ~data:(wire ()) ~ack:(wire ()) recv;
      Saturn.Reliable_fifo.send sender ~size_bytes:0 3;
      (* a wire carries one channel: the old wires cannot be reused *)
      Alcotest.check_raises "old wires" (Invalid_argument "Link.chan: the wire already has its channel")
        (fun () -> Saturn.Reliable_fifo.connect sender ~data ~ack recv));
  Sim.Engine.run ~until:(Sim.Time.of_ms 200) e;
  Saturn.Reliable_fifo.stop sender;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "old receiver got nothing" [] !first;
  Alcotest.(check (list int)) "new receiver got the backlog, in order" [ 1; 2; 3 ] (List.rev !second);
  Alcotest.(check int) "all acked" 0 (Saturn.Reliable_fifo.unacked sender)

(* Steady-state in-order traffic: per message, the retransmission entry
   (5 words; the size is not a constant, as in the service, and costs
   nothing since [~size_bytes] is required); the resend timer's closure,
   armed once per burst, adds 11 words over the 64 messages of a burst.
   Channels, rings, acks and the receiver's peer lookup add nothing; nor
   do a deferred receiver's unconfirmed ring and its confirms. *)
let fifo_words_per_message ~deferred () =
  let e = Sim.Engine.create () in
  let received = ref 0 in
  let data = Sim.Link.create e ~latency:(Sim.Time.of_ms 1) () in
  let ack = Sim.Link.create e ~latency:(Sim.Time.of_ms 1) () in
  let recv =
    if deferred then confirming_receiver e (fun m -> received := !received + m)
    else Saturn.Reliable_fifo.receiver e ~deliver:(fun m -> received := !received + m)
  in
  let sender = Saturn.Reliable_fifo.sender e ~resend_period:(Sim.Time.of_ms 30) in
  Saturn.Reliable_fifo.connect sender ~data ~ack recv;
  let burst () =
    for i = 1 to 64 do
      Saturn.Reliable_fifo.send sender ~size_bytes:(16 + (i land 1)) 1
    done;
    while Sim.Engine.step e do
      ()
    done
  in
  burst ();
  let rounds = 500 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    burst ()
  done;
  let per_message = (Gc.minor_words () -. before) /. float_of_int (64 * rounds) in
  Alcotest.(check int) "all delivered" (64 * (rounds + 1)) !received;
  Alcotest.(check int) "all acked" 0 (Saturn.Reliable_fifo.unacked sender);
  Alcotest.(check (float 1e-9)) "words per message" (5. +. (11. /. 64.)) per_message

(* Input to commit, forwards down a three-replica chain and commit acks
   back up included, allocates nothing once the rings and the origin-key
   table have grown: over 6 400 messages and 25 compactions. Counted
   minor and direct-to-major, so a table that kept growing would show. *)
let test_chain_words_per_message () =
  List.iter
    (fun replicas ->
      let e = Sim.Engine.create () in
      let committed = ref 0 and confirmed = ref 0 in
      let chain =
        Saturn.Chain.create e ~replicas ~intra_latency:(Sim.Time.of_us 10)
          ~deliver:(fun m -> committed := !committed + m)
          ~confirm:(fun ~peer:_ ~seq:_ -> incr confirmed)
          ()
      in
      let next = ref 0 in
      let burst () =
        for _ = 1 to 64 do
          let i = !next in
          next := i + 1;
          Saturn.Chain.input chain ~origin:3 ~oseq:i 1 ~peer:7 ~seq:i
        done;
        while Sim.Engine.step e do
          ()
        done
      in
      (* warm-up past the first compactions: every ring at its peak *)
      for _ = 1 to 40 do
        burst ()
      done;
      let words =
        Helpers.allocated (fun () ->
            for _ = 1 to 100 do
              burst ()
            done)
      in
      Alcotest.(check int) "all committed" (64 * 140) !committed;
      Alcotest.(check int) "all confirmed" (64 * 140) !confirmed;
      Alcotest.(check (float 0.)) (Printf.sprintf "words at %d replicas" replicas) 0. words)
    [ 1; 3 ]

(* ---- chain replication ----------------------------------------------------- *)

let make_chain ?(replicas = 3) ?(confirm = fun ~peer:_ ~seq:_ -> ()) e committed =
  Saturn.Chain.create e ~replicas ~intra_latency:(Sim.Time.of_us 300)
    ~deliver:(fun m -> committed := m :: !committed)
    ~confirm ()

let feed chain e xs =
  List.iteri
    (fun i x ->
      Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 100)) (fun () ->
          Saturn.Chain.input chain ~origin:0 ~oseq:i x ~peer:0 ~seq:i))
    xs

let test_chain_commit_order () =
  let e = Sim.Engine.create () in
  let committed = ref [] in
  let chain = make_chain e committed in
  feed chain e [ "a"; "b"; "c" ];
  Sim.Engine.run e;
  Alcotest.(check (list string)) "commit order" [ "a"; "b"; "c" ] (List.rev !committed);
  Alcotest.(check int) "committed count" 3 (Saturn.Chain.committed chain);
  Alcotest.(check int) "replicas alive" 3 (Saturn.Chain.alive_replicas chain)

let test_chain_confirm_after_commit () =
  let e = Sim.Engine.create () in
  let committed = ref [] in
  let confirmed_at = ref (-1) in
  let chain =
    make_chain ~confirm:(fun ~peer:_ ~seq:_ -> confirmed_at := Sim.Engine.now e) e committed
  in
  Saturn.Chain.input chain ~origin:1 ~oseq:0 "m" ~peer:0 ~seq:0;
  Sim.Engine.run e;
  (* 2 hops down + 2 hops of commit-ack back up = 4 x 300us *)
  Alcotest.(check int) "ack after full chain round" 1_200 !confirmed_at

let test_chain_dedup () =
  let e = Sim.Engine.create () in
  let committed = ref [] in
  let confirmed = ref [] in
  let chain =
    make_chain ~confirm:(fun ~peer ~seq -> confirmed := (peer, seq) :: !confirmed) e committed
  in
  Saturn.Chain.input chain ~origin:0 ~oseq:0 "m" ~peer:1 ~seq:0;
  Saturn.Chain.input chain ~origin:0 ~oseq:0 "m" ~peer:1 ~seq:1;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "retransmission not re-committed" [ "m" ] !committed;
  (* the retransmission's token replaced the first one's *)
  Alcotest.(check (list (pair int int))) "one confirm, the latest token" [ (1, 1) ] !confirmed;
  (* late retransmission after commit confirms immediately *)
  Saturn.Chain.input chain ~origin:0 ~oseq:0 "m" ~peer:2 ~seq:7;
  Alcotest.(check (list (pair int int))) "post-commit retransmission confirmed" [ (2, 7); (1, 1) ]
    !confirmed

let crash_test ~replica_to_crash () =
  let e = Sim.Engine.create () in
  let committed = ref [] in
  let chain = make_chain e committed in
  feed chain e [ "a"; "b"; "c"; "d" ];
  (* crash mid-stream *)
  Sim.Engine.schedule e ~delay:(Sim.Time.of_us 350) (fun () ->
      Saturn.Chain.crash_replica chain replica_to_crash);
  Sim.Engine.run e;
  Alcotest.(check int) "two replicas left" 2 (Saturn.Chain.alive_replicas chain);
  Alcotest.(check (list string)) "no loss/dup/reorder" [ "a"; "b"; "c"; "d" ] (List.rev !committed)

let test_chain_crash_head () = crash_test ~replica_to_crash:0 ()
let test_chain_crash_middle () = crash_test ~replica_to_crash:1 ()
let test_chain_crash_tail () = crash_test ~replica_to_crash:2 ()

let test_chain_all_crash () =
  let e = Sim.Engine.create () in
  let committed = ref [] in
  let confirmed = ref false in
  let chain = make_chain ~replicas:2 ~confirm:(fun ~peer:_ ~seq:_ -> confirmed := true) e committed in
  Saturn.Chain.crash_replica chain 0;
  Saturn.Chain.crash_replica chain 1;
  Alcotest.(check bool) "down" true (Saturn.Chain.is_down chain);
  (* inputs are silently dropped (no ack -> sender would retransmit) *)
  Saturn.Chain.input chain ~origin:0 ~oseq:0 "x" ~peer:0 ~seq:0;
  Sim.Engine.run e;
  Alcotest.(check bool) "no confirm while down" false !confirmed;
  Alcotest.check_raises "double crash rejected"
    (Invalid_argument "Chain.crash_replica: already crashed") (fun () ->
      Saturn.Chain.crash_replica chain 0)

let prop_chain_random_crashes =
  QCheck.Test.make ~name:"chain never loses/dups/reorders under a random crash" ~count:60
    QCheck.(triple small_int (int_range 1 20) (int_bound 2))
    (fun (seed, n, victim) ->
      let e = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let committed = ref [] in
      (* the chain promises order only to a sender that replays its
         unconfirmed messages at head change, which is exactly what the
         service's reliable channels do (Reliable_fifo.redeliver_unconfirmed) *)
      let unconfirmed : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let chain =
        make_chain ~confirm:(fun ~peer:_ ~seq -> Hashtbl.remove unconfirmed seq) e committed
      in
      let submit i =
        Hashtbl.replace unconfirmed i ();
        Saturn.Chain.input chain ~origin:0 ~oseq:i i ~peer:0 ~seq:i
      in
      Saturn.Chain.set_on_head_change chain (fun () ->
          let pending = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) unconfirmed []) in
          List.iter submit pending);
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 150)) (fun () -> submit i)
      done;
      let crash_at = Sim.Rng.int rng (n * 150 + 1_000) in
      Sim.Engine.schedule e ~delay:(Sim.Time.of_us crash_at) (fun () ->
          Saturn.Chain.crash_replica chain victim);
      Sim.Engine.run e;
      List.rev !committed = List.init n (fun i -> i + 1))

(* ---- service (serializer tree) --------------------------------------------- *)

let star_service ?(serializer_replicas = 1) ~interest e delivered =
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv |]
      ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc; Sim.Ec2.o |] ()
  in
  Saturn.Service.create e ~observer:(Stats.Observer.create ()) ~topo:Sim.Ec2.topology ~config
    ~interest
    ~deliver:(fun ~dc label -> delivered := (dc, label) :: !delivered)
    ~serializer_replicas ()

let update_label ~ts ~src ~key = Saturn.Label.update ~ts ~src_dc:src ~src_gear:0 ~key

let test_service_selective_delivery () =
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  (* key 1 interests dc1 only; key 2 interests dc1 and dc2 (masks, bit = dc) *)
  let interest (l : Saturn.Label.t) =
    match l.Saturn.Label.target with
    | Saturn.Label.Update { key = 1 } -> 0b011
    | Saturn.Label.Update _ -> 0b111
    | Saturn.Label.Migration { dest_dc } -> 1 lsl dest_dc
    | Saturn.Label.Epoch_change _ -> 0b111
  in
  let service = star_service ~interest e delivered in
  Saturn.Service.input service ~dc:0 (update_label ~ts:10 ~src:0 ~key:1);
  Saturn.Service.input service ~dc:0 (update_label ~ts:20 ~src:0 ~key:2);
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  let at dc = List.filter (fun (d, _) -> d = dc) !delivered in
  Alcotest.(check int) "dc1 got both" 2 (List.length (at 1));
  Alcotest.(check int) "dc2 only the shared key" 1 (List.length (at 2));
  Alcotest.(check int) "origin gets nothing back" 0 (List.length (at 0));
  Alcotest.(check int) "labels input" 2 (Saturn.Service.labels_input service);
  Alcotest.(check int) "labels delivered" 3 (Saturn.Service.labels_delivered service)

let test_service_rejects_wide_trees () =
  (* label targets are int masks: one bit per datacenter, 62 at most *)
  let n_dcs = 63 in
  let tree = Saturn.Tree.star ~n_dcs in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv |] ~dc_sites:(Array.make n_dcs Sim.Ec2.nv) ()
  in
  Alcotest.check_raises "63 datacenters"
    (Invalid_argument "Service.create: more than 62 datacenters") (fun () ->
      ignore
        (Saturn.Service.create (Sim.Engine.create ()) ~observer:(Stats.Observer.create ())
           ~topo:Sim.Ec2.topology ~config
           ~interest:(fun _ -> 0) ~deliver:(fun ~dc:_ _ -> ()) ()))

let test_service_migration_targeted () =
  (* migration labels go to the destination datacenter only *)
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  let interest (l : Saturn.Label.t) =
    match l.Saturn.Label.target with
    | Saturn.Label.Migration { dest_dc } -> 1 lsl dest_dc
    | Saturn.Label.Update _ | Saturn.Label.Epoch_change _ -> 0b111
  in
  let service = star_service ~interest e delivered in
  Saturn.Service.input service ~dc:0
    (Saturn.Label.migration ~ts:(Sim.Time.of_ms 5) ~src_dc:0 ~src_gear:0 ~dest_dc:2);
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  Alcotest.(check int) "only the destination" 1 (List.length !delivered);
  (match !delivered with
  | [ (2, l) ] -> Alcotest.(check bool) "is the migration" true (Saturn.Label.is_migration l)
  | _ -> Alcotest.fail "wrong destination")

let test_service_skips_labels_without_targets () =
  (* a label whose only interested dc is its origin never enters the tree *)
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  let interest (l : Saturn.Label.t) =
    match l.Saturn.Label.target with
    | Saturn.Label.Update { key } when key = 1 -> 0b001 (* origin only *)
    | _ -> 0b111
  in
  let service = star_service ~interest e delivered in
  Saturn.Service.input service ~dc:0 (update_label ~ts:10 ~src:0 ~key:1);
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  Alcotest.(check int) "counted as input" 1 (Saturn.Service.labels_input service);
  Alcotest.(check int) "zero hops" 0 (Saturn.Service.total_label_hops service);
  Alcotest.(check int) "nothing delivered" 0 (List.length !delivered)

let test_service_preserves_order () =
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  let interest _ = 0b111 in
  let service = star_service ~interest e delivered in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 50)) (fun () ->
        Saturn.Service.input service ~dc:0 (update_label ~ts:(i * 10) ~src:0 ~key:i))
  done;
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  let keys_at dc =
    List.filter_map
      (fun (d, (l : Saturn.Label.t)) ->
        match l.Saturn.Label.target with
        | Saturn.Label.Update { key } when d = dc -> Some key
        | _ -> None)
      (List.rev !delivered)
  in
  Alcotest.(check (list int)) "dc1 in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (keys_at 1);
  Alcotest.(check (list int)) "dc2 in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (keys_at 2)

(* A label's whole trip through the service, from input over a tree hop
   to two egress channels, costs its message (5 words) and one 5-word
   retransmission entry per channel send: the ingress, the hop and the two
   egresses. The chain, the deferred receivers' confirms and the routing
   add nothing, and one message serves every hop. Each of the four
   senders arms its resend timer (11 words) once per burst of 64. *)
let test_service_words_per_label () =
  let e = Sim.Engine.create () in
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |] in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.i |]
      ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc; Sim.Ec2.i |] ()
  in
  let delivered = ref 0 in
  let service =
    Saturn.Service.create e ~observer:(Stats.Observer.create ()) ~topo:Sim.Ec2.topology ~config
      ~interest:(fun _ -> 0b111)
      ~deliver:(fun ~dc:_ _ -> incr delivered)
      ()
  in
  let label = update_label ~ts:10 ~src:0 ~key:1 in
  let burst () =
    for _ = 1 to 64 do
      Saturn.Service.input service ~dc:0 label
    done;
    while Sim.Engine.step e do
      ()
    done
  in
  (* warm-up past the chains' first compactions: every ring at its peak *)
  for _ = 1 to 40 do
    burst ()
  done;
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    burst ()
  done;
  let per_label = (Gc.minor_words () -. before) /. float_of_int (64 * rounds) in
  Saturn.Service.shutdown service;
  Alcotest.(check int) "two deliveries per label" (2 * 64 * (40 + rounds)) !delivered;
  Alcotest.(check (float 1e-9)) "words per label" (25. +. (4. *. 11. /. 64.)) per_label

let test_service_edge_cut_transparent () =
  (* a chain tree: dc0 - s0 - s1 - dc1/dc2; cutting s0-s1 delays but never
     loses labels *)
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1; 1 |] in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.nc |]
      ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc; Sim.Ec2.o |] ()
  in
  let service =
    Saturn.Service.create e ~observer:(Stats.Observer.create ()) ~topo:Sim.Ec2.topology ~config
      ~interest:(fun _ -> 0b111)
      ~deliver:(fun ~dc label -> delivered := (dc, label) :: !delivered)
      ()
  in
  Saturn.Service.cut_edge service 0 1;
  for i = 1 to 5 do
    Saturn.Service.input service ~dc:0 (update_label ~ts:(i * 10) ~src:0 ~key:i)
  done;
  Sim.Engine.run ~until:(Sim.Time.of_ms 500) e;
  Alcotest.(check int) "nothing through the cut" 0 (List.length !delivered);
  Saturn.Service.restore_edge service 0 1;
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  Alcotest.(check int) "all delivered after restore" 10 (List.length !delivered);
  Alcotest.check_raises "unknown edge" (Invalid_argument "Service.cut_edge: not an edge") (fun () ->
      Saturn.Service.cut_edge service 0 0)

let test_service_chain_replica_crash_no_loss () =
  let e = Sim.Engine.create () in
  let delivered = ref [] in
  let interest _ = 0b111 in
  let service = star_service ~serializer_replicas:3 ~interest e delivered in
  for i = 1 to 20 do
    Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 200)) (fun () ->
        Saturn.Service.input service ~dc:0 (update_label ~ts:(i * 10) ~src:0 ~key:i))
  done;
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () ->
      Saturn.Service.crash_replica service ~serializer:0 ~replica:0);
  Sim.Engine.run ~until:(Sim.Time.of_sec 2.) e;
  Saturn.Service.shutdown service;
  Sim.Engine.run e;
  Alcotest.(check bool) "serializer still up" false (Saturn.Service.serializer_down service 0);
  let keys_at dc =
    List.filter_map
      (fun (d, (l : Saturn.Label.t)) ->
        match l.Saturn.Label.target with
        | Saturn.Label.Update { key } when d = dc -> Some key
        | _ -> None)
      (List.rev !delivered)
  in
  Alcotest.(check (list int)) "dc1 complete and ordered" (List.init 20 (fun i -> i + 1)) (keys_at 1);
  Alcotest.(check (list int)) "dc2 complete and ordered" (List.init 20 (fun i -> i + 1)) (keys_at 2)

(* the paper's correctness argument (§5.3 footnote): for causally related
   updates a → b, the lowest common ancestor serializer observes a's label
   before b's, so every interested datacenter receives them in order. We
   check it end-to-end on random trees: b is injected at the dc that just
   received a. *)
let prop_service_cross_dc_causality =
  let tree_gen =
    QCheck.Gen.(
      let* n = 1 -- 5 in
      let* parents = list_repeat (n - 1) (int_bound 1000) in
      let edges = List.mapi (fun i p -> (i + 1, p mod (i + 1))) parents in
      let* n_dcs = 3 -- 5 in
      let* attach = list_repeat n_dcs (int_bound (n - 1)) in
      let* sites = list_repeat n (int_bound 6) in
      return (n, edges, Array.of_list attach, Array.of_list sites, n_dcs))
  in
  QCheck.Test.make ~name:"service: cross-dc causal pairs delivered in order on random trees"
    ~count:60 (QCheck.make tree_gen)
    (fun (n, edges, attach, placement, n_dcs) ->
      let tree = Saturn.Tree.create ~n_serializers:n ~edges ~attach in
      let dc_sites = Array.init n_dcs (fun i -> i mod 7) in
      let config = Saturn.Config.create ~tree ~placement ~dc_sites () in
      let e = Sim.Engine.create () in
      let delivered = ref [] in
      let service = ref None in
      let svc =
        Saturn.Service.create e ~observer:(Stats.Observer.create ()) ~topo:Sim.Ec2.topology ~config
          ~interest:(fun _ -> (1 lsl n_dcs) - 1)
          ~deliver:(fun ~dc label ->
            delivered := (dc, label) :: !delivered;
            (* causal reaction: when dc1 receives the seed label, it issues
               a dependent one *)
            match (label.Saturn.Label.target, !service) with
            | Saturn.Label.Update { key = 100 }, Some s when dc = 1 ->
              Saturn.Service.input s ~dc:1 (update_label ~ts:(Sim.Time.to_us label.Saturn.Label.ts + 1) ~src:1 ~key:200)
            | _ -> ())
          ()
      in
      service := Some svc;
      Saturn.Service.input svc ~dc:0 (update_label ~ts:1000 ~src:0 ~key:100);
      Sim.Engine.run ~until:(Sim.Time.of_sec 3.) e;
      Saturn.Service.shutdown svc;
      Sim.Engine.run e;
      (* every dc other than 0 and 1 that received both must see 100 first *)
      let ok = ref true in
      for dc = 2 to n_dcs - 1 do
        let keys =
          List.filter_map
            (fun (d, (l : Saturn.Label.t)) ->
              match l.Saturn.Label.target with
              | Saturn.Label.Update { key } when d = dc -> Some key
              | _ -> None)
            (List.rev !delivered)
        in
        if keys <> [ 100; 200 ] then ok := false
      done;
      !ok)

(* The routing rule before labels stopped being copied per hop, kept here
   as the reference: each hop carried a copy of the label whose targets
   were cut down to the datacenters behind the edge it took. Returns the
   labels each directed serializer edge carries and the copies each
   datacenter receives. *)
let reference_route tree ~origin ~targets =
  let mask dcs = List.fold_left (fun m dc -> m lor (1 lsl dc)) 0 dcs in
  let hops = Hashtbl.create 8 and received = Array.make (Saturn.Tree.n_dcs tree) 0 in
  let rec visit s targets =
    List.iter
      (fun dc -> if targets land (1 lsl dc) <> 0 then received.(dc) <- received.(dc) + 1)
      (Saturn.Tree.dcs_at tree s);
    List.iter
      (fun b ->
        let sub = targets land mask (Saturn.Tree.dcs_behind tree ~from:s ~via:b) in
        if sub <> 0 then begin
          Hashtbl.replace hops (s, b) (1 + Option.value ~default:0 (Hashtbl.find_opt hops (s, b)));
          visit b sub
        end)
      (Saturn.Tree.neighbors tree s)
  in
  visit (Saturn.Tree.serializer_of tree ~dc:origin) targets;
  (hops, received)

(* The service forwards one record per label: at each serializer, toward
   every neighbour with a target behind it, except back toward the
   origin. On random trees and interest masks it takes exactly the
   reference's hops, and each target datacenter receives each label
   once. *)
let prop_service_route_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 6 in
      let* parents = list_repeat (n - 1) (int_bound 1000) in
      let edges = List.mapi (fun i p -> (i + 1, p mod (i + 1))) parents in
      let* n_dcs = 2 -- 7 in
      let* attach = list_repeat n_dcs (int_bound (n - 1)) in
      let* sites = list_repeat n (int_bound 6) in
      let* labels = list_size (1 -- 12) (pair (int_bound (n_dcs - 1)) (int_bound ((1 lsl n_dcs) - 1))) in
      return (n, edges, Array.of_list attach, Array.of_list sites, n_dcs, labels))
  in
  QCheck.Test.make ~name:"service: copy-free route takes the reference's hops" ~count:80
    (QCheck.make gen) (fun (n, edges, attach, placement, n_dcs, labels) ->
      let tree = Saturn.Tree.create ~n_serializers:n ~edges ~attach in
      let dc_sites = Array.init n_dcs (fun i -> i mod 7) in
      let config = Saturn.Config.create ~tree ~placement ~dc_sites () in
      let e = Sim.Engine.create () in
      let masks = Array.of_list (List.map snd labels) in
      let received = Hashtbl.create 16 in
      let svc =
        Saturn.Service.create e ~observer:(Stats.Observer.create ()) ~topo:Sim.Ec2.topology ~config
          ~interest:(fun l ->
            match l.Saturn.Label.target with
            | Saturn.Label.Update { key } -> masks.(key)
            | Saturn.Label.Migration _ | Saturn.Label.Epoch_change _ -> 0)
          ~deliver:(fun ~dc l ->
            match l.Saturn.Label.target with
            | Saturn.Label.Update { key } ->
              Hashtbl.replace received (key, dc)
                (1 + Option.value ~default:0 (Hashtbl.find_opt received (key, dc)))
            | Saturn.Label.Migration _ | Saturn.Label.Epoch_change _ -> ())
          ()
      in
      List.iteri
        (fun key (origin, _) ->
          Saturn.Service.input svc ~dc:origin (update_label ~ts:(1000 + key) ~src:origin ~key))
        labels;
      Sim.Engine.run ~until:(Sim.Time.of_sec 3.) e;
      Saturn.Service.shutdown svc;
      Sim.Engine.run e;
      let want_hops = Hashtbl.create 8 in
      let ok = ref true in
      List.iteri
        (fun key (origin, mask) ->
          let targets = mask land lnot (1 lsl origin) in
          let hops, copies = reference_route tree ~origin ~targets in
          Hashtbl.iter
            (fun edge k ->
              Hashtbl.replace want_hops edge (k + Option.value ~default:0 (Hashtbl.find_opt want_hops edge)))
            hops;
          Array.iteri
            (fun dc want ->
              let got = Option.value ~default:0 (Hashtbl.find_opt received (key, dc)) in
              (* the reference delivers each target once, the service too *)
              if want <> (if targets land (1 lsl dc) <> 0 then 1 else 0) || got <> want then ok := false)
            copies)
        labels;
      List.iter
        (fun (edge, got) ->
          if got <> Option.value ~default:0 (Hashtbl.find_opt want_hops edge) then ok := false)
        (Saturn.Service.edge_traffic svc);
      !ok)

let suite =
  [
    Alcotest.test_case "reliable fifo basics" `Quick test_fifo_basic;
    QCheck_alcotest.to_alcotest prop_service_route_matches_reference;
    QCheck_alcotest.to_alcotest prop_service_cross_dc_causality;
    Alcotest.test_case "reliable fifo survives cuts" `Quick test_fifo_survives_cut;
    qtest prop_fifo_exactly_once_under_cuts;
    Alcotest.test_case "deferred acknowledgements" `Quick test_fifo_deferred_ack;
    Alcotest.test_case "reliable fifo re-targets over fresh wires" `Quick test_fifo_reconnect;
    Alcotest.test_case "reliable fifo words per message" `Quick
      (fifo_words_per_message ~deferred:false);
    Alcotest.test_case "deferred fifo words per message" `Quick
      (fifo_words_per_message ~deferred:true);
    Alcotest.test_case "chain input to commit allocates nothing" `Quick
      test_chain_words_per_message;
    Alcotest.test_case "chain commit order" `Quick test_chain_commit_order;
    Alcotest.test_case "chain confirms after commit" `Quick test_chain_confirm_after_commit;
    Alcotest.test_case "chain dedups retransmissions" `Quick test_chain_dedup;
    Alcotest.test_case "chain survives head crash" `Quick test_chain_crash_head;
    Alcotest.test_case "chain survives middle crash" `Quick test_chain_crash_middle;
    Alcotest.test_case "chain survives tail crash" `Quick test_chain_crash_tail;
    Alcotest.test_case "fully-crashed chain is silent" `Quick test_chain_all_crash;
    qtest prop_chain_random_crashes;
    Alcotest.test_case "service selective delivery" `Quick test_service_selective_delivery;
    Alcotest.test_case "service targets migrations" `Quick test_service_migration_targeted;
    Alcotest.test_case "service rejects over 62 datacenters" `Quick test_service_rejects_wide_trees;
    Alcotest.test_case "service skips targetless labels" `Quick test_service_skips_labels_without_targets;
    Alcotest.test_case "service preserves per-dc order" `Quick test_service_preserves_order;
    Alcotest.test_case "service: a label costs its message and channel entries" `Quick
      test_service_words_per_label;
    Alcotest.test_case "service edge cut is transparent" `Quick test_service_edge_cut_transparent;
    Alcotest.test_case "service chain replica crash: no loss" `Quick test_service_chain_replica_crash_no_loss;
  ]
