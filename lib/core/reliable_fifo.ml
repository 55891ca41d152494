(* Sender ids and sequence numbers are small dense ints: hash them as
   themselves (the table takes the low bits) and compare them as ints. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

type 'msg entry = { seq : int; size : int; msg : 'msg; mutable last_sent : Sim.Time.t }

(* One record per sender: the per-message path does a single int lookup
   instead of five polymorphic-hash probes keyed by [sender] or
   [(sender, seq)]. *)
type 'msg peer = {
  id : int; (* the sender's id *)
  mutable expected : int; (* next seq to deliver *)
  buffer : 'msg Int_tbl.t; (* out-of-order arrivals: seq -> msg *)
  (* deferred mode: confirmations so far, and the delivered-but-unconfirmed
     messages by seq *)
  mutable confirmed : int;
  unconfirmed : 'msg Sim.Seq_ring.t;
  mutable ack : int Sim.Link.chan;
}

type 'msg receiver = {
  r_engine : Sim.Engine.t;
  r_deliver : 'msg peer -> seq:int -> 'msg -> unit;
  r_peers : 'msg peer Int_tbl.t; (* sender id -> peer *)
  r_deferred : bool;
  mutable r_delivered : int;
}

type 'msg sender = {
  s_engine : Sim.Engine.t;
  s_id : int;
  resend_period : Sim.Time.t;
  mutable next_seq : int;
  unacked : 'msg entry Sim.Ring.t; (* oldest first; seqs strictly increasing *)
  (* the data channel carries the entry itself, already allocated for
     retransmission; its handler, and the ack channel's, are made once at
     [connect] *)
  mutable route : 'msg entry Sim.Link.chan option;
  mutable stopped : bool;
  mutable timer_running : bool;
}

let make_receiver r_engine ~deferred ~deliver =
  { r_engine; r_deliver = deliver; r_peers = Int_tbl.create 8; r_deferred = deferred;
    r_delivered = 0 }

let receiver r_engine ~deliver =
  make_receiver r_engine ~deferred:false ~deliver:(fun _ ~seq:_ msg -> deliver msg)

let confirm_peer p ~seq =
  if Sim.Seq_ring.mem p.unconfirmed seq then begin
    Sim.Seq_ring.remove p.unconfirmed seq;
    let confirmed = p.confirmed in
    p.confirmed <- confirmed + 1;
    Sim.Link.send p.ack ~size_bytes:0 confirmed
  end

let confirm recv ~peer ~seq =
  match Int_tbl.find recv.r_peers peer with
  | p -> confirm_peer p ~seq
  | exception Not_found -> invalid_arg "Reliable_fifo.confirm: no such peer"

let deliver_deferred consumer p ~seq msg =
  Sim.Seq_ring.set p.unconfirmed seq msg;
  consumer msg ~peer:p.id ~seq

let receiver_deferred r_engine ~deliver =
  make_receiver r_engine ~deferred:true ~deliver:(fun p ~seq msg ->
      deliver_deferred deliver p ~seq msg)

let redeliver_unconfirmed recv ~deliver =
  (* replay delivered-but-unconfirmed messages in (sender id, seq) order:
     the consumer (a healed chain) may have lost them. A replayed message
     can only be confirmed during its own replay, so walking the live
     rings replays exactly what was unconfirmed when the replay began. *)
  let peers =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Int_tbl.fold (fun id p acc -> (id, p) :: acc) recv.r_peers [])
  in
  List.iter
    (fun (_, p) -> Sim.Seq_ring.iter (fun seq msg -> deliver_deferred deliver p ~seq msg) p.unconfirmed)
    peers

let delivered r = r.r_delivered

let peer recv sender_id ~ack =
  match Int_tbl.find recv.r_peers sender_id with
  | p ->
    p.ack <- ack;
    p
  | exception Not_found ->
    let p =
      { id = sender_id; expected = 0; buffer = Int_tbl.create 8; confirmed = 0;
        unconfirmed = Sim.Seq_ring.create (); ack }
    in
    Int_tbl.add recv.r_peers sender_id p;
    p

let receive recv ~sender_id ~ack entry =
  let p = peer recv sender_id ~ack in
  let expected = p.expected in
  let seq = entry.seq in
  let expected' =
    if seq = expected && Int_tbl.length p.buffer = 0 then begin
      (* in order with nothing buffered: skip the out-of-order table *)
      recv.r_delivered <- recv.r_delivered + 1;
      recv.r_deliver p ~seq entry.msg;
      expected + 1
    end
    else begin
      if seq >= expected then Int_tbl.replace p.buffer seq entry.msg;
      (* drain the in-order prefix *)
      let rec drain e =
        match Int_tbl.find p.buffer e with
        | m ->
          Int_tbl.remove p.buffer e;
          recv.r_delivered <- recv.r_delivered + 1;
          recv.r_deliver p ~seq:e m;
          drain (e + 1)
        | exception Not_found -> e
      in
      drain expected
    end
  in
  p.expected <- expected';
  if recv.r_deferred then begin
    (* ack only the confirmed prefix *)
    if p.confirmed > 0 then Sim.Link.send ack ~size_bytes:0 (p.confirmed - 1)
  end
  else
    (* cumulative ack: everything below expected' has been delivered *)
    Sim.Link.send ack ~size_bytes:0 (expected' - 1)

let sender s_engine ~resend_period =
  (* engine-scoped, not process-global: the id reaches the probe stream
     via [Fifo_resend], and a global counter would make a second
     same-seed run in the same process digest differently *)
  { s_engine; s_id = Sim.Engine.fresh_id s_engine; resend_period; next_seq = 0;
    unacked = Sim.Ring.create (); route = None; stopped = false; timer_running = false }

let sender_id s = s.s_id
let unacked s = Sim.Ring.length s.unacked

let transmit s data entry =
  entry.last_sent <- Sim.Engine.now s.s_engine;
  Sim.Link.send data ~size_bytes:entry.size entry

(* cumulative ack + seq-ordered queue: drop the acked prefix *)
let rec drop_acked s acked =
  if Sim.Ring.length s.unacked > 0 && (Sim.Ring.peek_exn s.unacked).seq <= acked then begin
    ignore (Sim.Ring.pop_exn s.unacked);
    drop_acked s acked
  end

let rec arm_timer s =
  if (not s.timer_running) && not s.stopped then begin
    s.timer_running <- true;
    Sim.Engine.schedule s.s_engine ~delay:s.resend_period (fun () ->
        s.timer_running <- false;
        if not s.stopped then begin
          let now = Sim.Engine.now s.s_engine in
          (match s.route with
          | None -> ()
          | Some route ->
            (* retransmit only entries that have been in flight for a full
               period — fresh entries are just waiting on the normal RTT *)
            Sim.Ring.iter
              (fun e ->
                if Sim.Time.compare (Sim.Time.sub now e.last_sent) s.resend_period >= 0 then begin
                  if Sim.Probe.active () then
                    Sim.Probe.fifo_resend ~at:now ~sender:s.s_id ~seq:e.seq;
                  transmit s route e
                end)
              s.unacked);
          if Sim.Ring.length s.unacked > 0 then arm_timer s
        end)
  end

let send s ~size_bytes msg =
  match s.route with
  | None -> invalid_arg "Reliable_fifo.send: not connected"
  | Some route ->
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let entry = { seq; size = size_bytes; msg; last_sent = Sim.Engine.now s.s_engine } in
    Sim.Ring.push s.unacked entry;
    transmit s route entry;
    arm_timer s

let connect s ~data ~ack dest =
  let ack = Sim.Link.chan ack (drop_acked s) in
  let data = Sim.Link.chan data (receive dest ~sender_id:s.s_id ~ack) in
  s.route <- Some data;
  Sim.Ring.iter (transmit s data) s.unacked;
  if Sim.Ring.length s.unacked > 0 then arm_timer s

let stop s = s.stopped <- true
