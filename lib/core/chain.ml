(* Sequence numbers are dense, and every per-seq table is a
   {!Sim.Seq_ring} over the live window: each replica's store, and the
   origin key and pending confirm token of each seq the head assigned.
   Origin keys index seqs through a {!Sim.Flat_table}. Nothing on the
   per-message path allocates once the rings and the table have grown. *)

type 'msg replica = {
  mutable store : 'msg Sim.Seq_ring.t;
  mutable max_contig : int; (* highest seq with all 0..seq stored; -1 if none *)
  mutable alive : bool;
}

(* A delay line whose items carry an int beside them: the ints ride a
   parallel ring pushed and popped in step, so an item costs no pair. *)
type 'a tagged = { line : 'a Sim.Delay_line.t; tags : int Sim.Ring.t }

let tagged engine handler =
  let tags = Sim.Ring.create () in
  { line = Sim.Delay_line.create engine (fun x -> handler (Sim.Ring.pop_exn tags) x); tags }

let push_tagged l ~at tag x =
  Sim.Ring.push l.tags tag;
  Sim.Delay_line.push l.line ~at x

type 'msg t = {
  engine : Sim.Engine.t;
  intra_latency : Sim.Time.t;
  deliver : 'msg -> unit;
  confirm : peer:int -> seq:int -> unit;
  reps : 'msg replica array;
  mutable order : int list; (* alive replica ids, head first *)
  (* cached from [order], which changes only on a crash *)
  mutable tail : 'msg replica option;
  mutable n_alive : int;
  mutable next_seq : int;
  mutable committed : int; (* seqs [0, committed) delivered *)
  mutable base : int; (* the compaction floor: seqs below it are dropped *)
  (* by seq, from [base] on: the origin key of the message assigned it *)
  origins : int Sim.Seq_ring.t;
  oseqs : int Sim.Seq_ring.t;
  (* by seq: the confirm token (peer, seq) of a message not yet committed *)
  peers : int Sim.Seq_ring.t;
  pseqs : int Sim.Seq_ring.t;
  index : Sim.Flat_table.t; (* origin key -> assigned seq *)
  (* forwards into each replica, tagged with their seq; intra latency is
     fixed, so due times never decrease *)
  mutable inboxes : 'msg tagged array;
  (* commit acks on their way up, by upstream hop count: the peer tagged
     with its seq. The ack's delay shrinks when a replica crashes, but is
     fixed within one line *)
  mutable acks : int tagged array;
  mutable on_head_change : unit -> unit;
}

let set_order t order =
  t.order <- order;
  t.n_alive <- List.length order;
  t.tail <- (match List.rev order with [] -> None | id :: _ -> Some t.reps.(id))

let set_on_head_change t f = t.on_head_change <- f
let alive_replicas t = t.n_alive
let committed t = t.committed
let is_down t = t.order = []

(* [Engine.schedule] clamps negative delays to zero *)
let after t delay = Sim.Time.add (Sim.Engine.now t.engine) (Sim.Time.max delay Sim.Time.zero)

(* the replica after [id] in [order], or -1 when [id] is the tail *)
let rec successor id = function
  | a :: b :: _ when a = id -> b
  | _ :: rest -> successor id rest
  | [] -> -1

(* drops the origin key bound to [seq], if it still is *)
let unbind t seq =
  let i =
    Sim.Flat_table.find t.index (Sim.Seq_ring.get t.origins seq) (Sim.Seq_ring.get t.oseqs seq) 0 0 0 0 0
  in
  if Sim.Flat_table.found t.index i && Sim.Flat_table.value t.index i = seq then
    Sim.Flat_table.remove t.index i

let compact_window = 1024

(* drops every seq below [committed - compact_window] from the origin-key
   index and from every alive replica's store *)
let compact t =
  let floor = t.committed - compact_window in
  if floor > t.base then begin
    for seq = t.base to floor - 1 do
      unbind t seq
    done;
    Sim.Seq_ring.drop_below t.origins floor;
    Sim.Seq_ring.drop_below t.oseqs floor;
    for id = 0 to Array.length t.reps - 1 do
      let r = t.reps.(id) in
      if r.alive then Sim.Seq_ring.drop_below r.store floor
    done;
    t.base <- floor
  end

let rec try_commit t =
  match t.tail with
  | None -> ()
  | Some tail ->
    if tail.max_contig >= t.committed then begin
      let seq = t.committed in
      t.committed <- seq + 1;
      let msg = Sim.Seq_ring.get tail.store seq in
      (* the origin key stays bound for a window after commit: a
         retransmission whose ack was lost must be confirmed, not committed
         again; keys far below the committed point can no longer be
         retransmitted and are compacted away *)
      t.deliver msg;
      if seq land 255 = 0 then compact t;
      if Sim.Seq_ring.mem t.peers seq then begin
        let peer = Sim.Seq_ring.get t.peers seq and pseq = Sim.Seq_ring.get t.pseqs seq in
        Sim.Seq_ring.remove t.peers seq;
        Sim.Seq_ring.remove t.pseqs seq;
        if Sim.Probe.active () then Sim.Probe.chain_ack ~at:(Sim.Engine.now t.engine) ~seq;
        (* the commit ack travels back up the chain before the external
           sender is acknowledged *)
        let upstream_hops = t.n_alive - 1 in
        let delay = Sim.Time.of_us (upstream_hops * Sim.Time.to_us t.intra_latency) in
        push_tagged t.acks.(upstream_hops) ~at:(after t delay) pseq peer
      end;
      try_commit t
    end

let rec store_at t id ~seq msg =
  let r = t.reps.(id) in
  if r.alive && not (Sim.Seq_ring.mem r.store seq) then begin
    Sim.Seq_ring.set r.store seq msg;
    while Sim.Seq_ring.mem r.store (r.max_contig + 1) do
      r.max_contig <- r.max_contig + 1
    done;
    forward t id ~seq msg
  end

and forward t id ~seq msg =
  let succ = successor id t.order in
  if succ < 0 then try_commit t
  else push_tagged t.inboxes.(succ) ~at:(after t t.intra_latency) seq msg

let create engine ~replicas ~intra_latency ~deliver ~confirm () =
  if replicas < 1 then invalid_arg "Chain.create: replicas < 1";
  let t =
    {
      engine;
      intra_latency;
      deliver;
      confirm;
      reps =
        Array.init replicas (fun _ ->
            { store = Sim.Seq_ring.create (); max_contig = -1; alive = true });
      order = [];
      tail = None;
      n_alive = 0;
      next_seq = 0;
      committed = 0;
      base = 0;
      origins = Sim.Seq_ring.create ();
      oseqs = Sim.Seq_ring.create ();
      peers = Sim.Seq_ring.create ();
      pseqs = Sim.Seq_ring.create ();
      index = Sim.Flat_table.create ~fields:2;
      inboxes = [||];
      acks = [||];
      on_head_change = (fun () -> ());
    }
  in
  (* [store_at] drops a forward to a replica that crashed meanwhile *)
  t.inboxes <- Array.init replicas (fun id -> tagged engine (fun seq msg -> store_at t id ~seq msg));
  t.acks <- Array.init replicas (fun _ -> tagged engine (fun seq peer -> t.confirm ~peer ~seq));
  set_order t (List.init replicas Fun.id);
  t

let set_token t seq ~peer ~pseq =
  Sim.Seq_ring.set t.peers seq peer;
  Sim.Seq_ring.set t.pseqs seq pseq

let input t ~origin ~oseq msg ~peer ~seq:pseq =
  if peer < 0 then invalid_arg "Chain.input: negative peer";
  match t.order with
  | [] -> () (* chain down: no ack, the sender keeps retransmitting *)
  | head :: _ ->
    let i = Sim.Flat_table.find t.index origin oseq 0 0 0 0 0 in
    if Sim.Flat_table.found t.index i then begin
      (* retransmission of a message the chain already holds *)
      let seq = Sim.Flat_table.value t.index i in
      if seq < t.committed then t.confirm ~peer ~seq:pseq else set_token t seq ~peer ~pseq
    end
    else begin
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Sim.Seq_ring.set t.origins seq origin;
      Sim.Seq_ring.set t.oseqs seq oseq;
      set_token t seq ~peer ~pseq;
      Sim.Flat_table.set t.index i origin oseq 0 0 0 0 0 seq;
      store_at t head ~seq msg
    end

let resync t =
  (* every adjacent pair re-syncs: the predecessor holds a superset (chain
     prefix property), so it can replay whatever the successor is missing *)
  let rec pairs = function
    | p :: (s :: _ as rest) ->
      let pred = t.reps.(p) and succ = t.reps.(s) in
      for seq = succ.max_contig + 1 to pred.max_contig do
        push_tagged t.inboxes.(s) ~at:(after t t.intra_latency) seq (Sim.Seq_ring.get pred.store seq)
      done;
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs t.order

let crash_replica t i =
  if i < 0 || i >= Array.length t.reps then invalid_arg "Chain.crash_replica: no such replica";
  if not t.reps.(i).alive then invalid_arg "Chain.crash_replica: already crashed";
  let was_head = match t.order with h :: _ -> h = i | [] -> false in
  let r = t.reps.(i) in
  r.alive <- false;
  r.store <- Sim.Seq_ring.create ();
  set_order t (List.filter (fun id -> id <> i) t.order);
  match t.order with
  | [] -> ()
  | new_head :: _ ->
    if was_head then begin
      (* sequence numbers the dead head assigned but never replicated are
         lost; their origin keys and pending confirms must go so
         retransmissions are re-keyed. Seqs at or above [next_seq] lost
         theirs in an earlier head crash. *)
      let floor = max t.committed (t.reps.(new_head).max_contig + 1) in
      for seq = floor to t.next_seq - 1 do
        unbind t seq;
        Sim.Seq_ring.remove t.peers seq;
        Sim.Seq_ring.remove t.pseqs seq
      done;
      t.next_seq <- floor
    end;
    resync t;
    try_commit t;
    if was_head then t.on_head_change ()
