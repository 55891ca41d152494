(* Sender ids and sequence numbers are small dense ints: hash them as
   themselves (the table takes the low bits) and compare them as ints. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

(* One record per sender: the per-message path does a single int lookup
   instead of five polymorphic-hash probes keyed by [sender] or
   [(sender, seq)]. *)
type 'msg peer = {
  mutable expected : int; (* next seq to deliver *)
  buffer : 'msg Int_tbl.t; (* out-of-order arrivals: seq -> msg *)
  (* deferred mode: next seq to confirm, delivered-but-unconfirmed
     messages, and the latest ack channel *)
  mutable confirmed : int;
  unconfirmed : 'msg Int_tbl.t;
  mutable ack_via : int -> unit;
}

type 'msg receiver = {
  r_engine : Sim.Engine.t;
  r_deliver : 'msg peer -> seq:int -> 'msg -> unit;
  r_peers : 'msg peer Int_tbl.t; (* sender id -> peer *)
  r_deferred : bool;
  mutable r_delivered : int;
}

type 'msg entry = { seq : int; size : int; msg : 'msg; mutable last_sent : Sim.Time.t }

type 'msg sender = {
  s_engine : Sim.Engine.t;
  s_id : int;
  resend_period : Sim.Time.t;
  mutable next_seq : int;
  unacked : 'msg entry Queue.t; (* oldest first; seqs strictly increasing *)
  mutable route : 'msg route option;
  mutable stopped : bool;
  mutable timer_running : bool;
}

and 'msg route = { data : Sim.Link.t; ack : Sim.Link.t; dest : 'msg receiver }

let make_receiver r_engine ~deferred ~deliver =
  { r_engine; r_deliver = deliver; r_peers = Int_tbl.create 8; r_deferred = deferred;
    r_delivered = 0 }

let receiver r_engine ~deliver =
  make_receiver r_engine ~deferred:false ~deliver:(fun _ ~seq:_ msg -> deliver msg)

let deliver_deferred consumer p ~seq msg =
  let confirm () =
    if Int_tbl.mem p.unconfirmed seq then begin
      Int_tbl.remove p.unconfirmed seq;
      let confirmed = p.confirmed in
      p.confirmed <- confirmed + 1;
      p.ack_via confirmed
    end
  in
  Int_tbl.replace p.unconfirmed seq msg;
  consumer msg ~confirm

let receiver_deferred r_engine ~deliver =
  make_receiver r_engine ~deferred:true ~deliver:(fun p ~seq msg ->
      deliver_deferred deliver p ~seq msg)

let redeliver_unconfirmed recv ~deliver =
  (* replay delivered-but-unconfirmed messages in sequence order per
     sender: the consumer (a healed chain) may have lost them *)
  let pending =
    Int_tbl.fold
      (fun id p acc -> Int_tbl.fold (fun seq m acc -> ((id, seq), p, m) :: acc) p.unconfirmed acc)
      recv.r_peers []
  in
  List.iter
    (fun ((_, seq), p, msg) -> deliver_deferred deliver p ~seq msg)
    (List.sort
       (fun ((s1, q1), _, _) ((s2, q2), _, _) ->
         match Int.compare s1 s2 with 0 -> Int.compare q1 q2 | c -> c)
       pending)

let delivered r = r.r_delivered

let peer recv sender_id ~send_ack =
  match Int_tbl.find recv.r_peers sender_id with
  | p ->
    p.ack_via <- send_ack;
    p
  | exception Not_found ->
    let p =
      { expected = 0; buffer = Int_tbl.create 8; confirmed = 0;
        unconfirmed = Int_tbl.create 8; ack_via = send_ack }
    in
    Int_tbl.add recv.r_peers sender_id p;
    p

let receive recv ~sender_id ~seq msg ~send_ack =
  let p = peer recv sender_id ~send_ack in
  let expected = p.expected in
  if seq >= expected then Int_tbl.replace p.buffer seq msg;
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
  let expected' = drain expected in
  p.expected <- expected';
  if recv.r_deferred then begin
    (* ack only the confirmed prefix *)
    if p.confirmed > 0 then send_ack (p.confirmed - 1)
  end
  else
    (* cumulative ack: everything below expected' has been delivered *)
    send_ack (expected' - 1)

let sender s_engine ~resend_period =
  (* engine-scoped, not process-global: the id reaches the probe stream
     via [Fifo_resend], and a global counter would make a second
     same-seed run in the same process digest differently *)
  { s_engine; s_id = Sim.Engine.fresh_id s_engine; resend_period; next_seq = 0;
    unacked = Queue.create (); route = None; stopped = false; timer_running = false }

let unacked s = Queue.length s.unacked

let transmit s route entry =
  entry.last_sent <- Sim.Engine.now s.s_engine;
  Sim.Link.send route.data ~size_bytes:entry.size (fun () ->
      receive route.dest ~sender_id:s.s_id ~seq:entry.seq entry.msg ~send_ack:(fun acked ->
          Sim.Link.send route.ack (fun () ->
              (* cumulative ack + seq-ordered queue: drop the acked prefix *)
              let rec drop () =
                match Queue.peek_opt s.unacked with
                | Some e when e.seq <= acked ->
                  ignore (Queue.pop s.unacked);
                  drop ()
                | Some _ | None -> ()
              in
              drop ())))

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
            Queue.iter
              (fun e ->
                if Sim.Time.compare (Sim.Time.sub now e.last_sent) s.resend_period >= 0 then begin
                  if Sim.Probe.active () then
                    Sim.Probe.emit ~at:now (Sim.Probe.Fifo_resend { sender = s.s_id; seq = e.seq });
                  transmit s route e
                end)
              s.unacked);
          if not (Queue.is_empty s.unacked) then arm_timer s
        end)
  end

let send s ?(size_bytes = 0) msg =
  match s.route with
  | None -> invalid_arg "Reliable_fifo.send: not connected"
  | Some route ->
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let entry = { seq; size = size_bytes; msg; last_sent = Sim.Engine.now s.s_engine } in
    Queue.push entry s.unacked;
    transmit s route entry;
    arm_timer s

let connect s ~data ~ack dest =
  s.route <- Some { data; ack; dest };
  let route = { data; ack; dest } in
  Queue.iter (transmit s route) s.unacked;
  if not (Queue.is_empty s.unacked) then arm_timer s

let stop s = s.stopped <- true
