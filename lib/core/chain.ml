(* Sequence numbers are dense ints, hashed as themselves; origin keys are
   (datacenter, sequence) pairs. Both compare as ints — no polymorphic
   hash or compare on the per-message path. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

module Key_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash (a, b) = (b * 31) + a
end)

type 'msg replica = {
  id : int;
  store : ((int * int) * 'msg) Int_tbl.t; (* seq -> (ext_key, msg) *)
  mutable max_contig : int; (* highest seq with all 0..seq stored; -1 if none *)
  mutable alive : bool;
}

type 'msg t = {
  engine : Sim.Engine.t;
  intra_latency : Sim.Time.t;
  deliver : 'msg -> unit;
  reps : 'msg replica array;
  mutable order : int list; (* alive replica ids, head first *)
  (* cached from [order], which changes only on a crash *)
  mutable tail : 'msg replica option;
  mutable n_alive : int;
  mutable next_seq : int;
  mutable committed : int; (* seqs [0, committed) delivered *)
  dedup : int Key_tbl.t; (* ext_key -> assigned seq *)
  confirms : (unit -> unit) Int_tbl.t; (* seq -> external confirm *)
  mutable on_head_change : unit -> unit;
}

let set_order t order =
  t.order <- order;
  t.n_alive <- List.length order;
  t.tail <- (match List.rev order with [] -> None | id :: _ -> Some t.reps.(id))

let create engine ~replicas ~intra_latency ~deliver () =
  if replicas < 1 then invalid_arg "Chain.create: replicas < 1";
  let t =
    {
      engine;
      intra_latency;
      deliver;
      reps =
        Array.init replicas (fun id ->
            { id; store = Int_tbl.create 64; max_contig = -1; alive = true });
      order = [];
      tail = None;
      n_alive = 0;
      next_seq = 0;
      committed = 0;
      dedup = Key_tbl.create 64;
      confirms = Int_tbl.create 64;
      on_head_change = (fun () -> ());
    }
  in
  set_order t (List.init replicas Fun.id);
  t

let set_on_head_change t f = t.on_head_change <- f
let alive_replicas t = t.n_alive
let committed t = t.committed
let is_down t = t.order = []

(* the replica after [id] in [order], or -1 when [id] is the tail *)
let rec successor id = function
  | a :: b :: _ when a = id -> b
  | _ :: rest -> successor id rest
  | [] -> -1

let compact_window = 1024

let compact t =
  let floor = t.committed - compact_window in
  if floor > 0 then begin
    let stale = Key_tbl.fold (fun k seq acc -> if seq < floor then k :: acc else acc) t.dedup [] in
    List.iter (Key_tbl.remove t.dedup) stale;
    Array.iter
      (fun r ->
        if r.alive then begin
          let old = Int_tbl.fold (fun seq _ acc -> if seq < floor then seq :: acc else acc) r.store [] in
          List.iter (Int_tbl.remove r.store) old
        end)
      t.reps
  end

let rec try_commit t =
  match t.tail with
  | None -> ()
  | Some tail ->
    if tail.max_contig >= t.committed then begin
      let seq = t.committed in
      t.committed <- seq + 1;
      let _ext_key, msg = Int_tbl.find tail.store seq in
      (* the dedup entry is kept for a window after commit: a retransmission
         whose ack was lost must be confirmed, not committed again; entries
         far below the committed point can no longer be retransmitted and
         are compacted away *)
      t.deliver msg;
      if seq land 255 = 0 then compact t;
      (match Int_tbl.find t.confirms seq with
      | confirm ->
        Int_tbl.remove t.confirms seq;
        if Sim.Probe.active () then
          Sim.Probe.chain_ack ~at:(Sim.Engine.now t.engine) ~seq;
        (* the commit ack travels back up the chain before the external
           sender is acknowledged *)
        let upstream_hops = t.n_alive - 1 in
        let delay = Sim.Time.of_us (upstream_hops * Sim.Time.to_us t.intra_latency) in
        Sim.Engine.schedule t.engine ~delay confirm
      | exception Not_found -> ());
      try_commit t
    end

let rec store_at t id ~seq entry =
  let r = t.reps.(id) in
  if r.alive && not (Int_tbl.mem r.store seq) then begin
    Int_tbl.replace r.store seq entry;
    while Int_tbl.mem r.store (r.max_contig + 1) do
      r.max_contig <- r.max_contig + 1
    done;
    forward t id ~seq entry
  end

and forward t id ~seq entry =
  let succ = successor id t.order in
  if succ < 0 then try_commit t
  else
    Sim.Engine.schedule t.engine ~delay:t.intra_latency (fun () ->
        if t.reps.(succ).alive then store_at t succ ~seq entry)

let input t ~ext_key msg ~confirm =
  match t.order with
  | [] -> () (* chain down: no ack, the sender keeps retransmitting *)
  | head :: _ -> (
    match Key_tbl.find_opt t.dedup ext_key with
    | Some seq ->
      (* retransmission of a message the chain already holds *)
      if seq < t.committed then confirm () else Int_tbl.replace t.confirms seq confirm
    | None ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Key_tbl.replace t.dedup ext_key seq;
      Int_tbl.replace t.confirms seq confirm;
      store_at t head ~seq (ext_key, msg))

let resync t =
  (* every adjacent pair re-syncs: the predecessor holds a superset (chain
     prefix property), so it can replay whatever the successor is missing *)
  let rec pairs = function
    | p :: (s :: _ as rest) ->
      let pred = t.reps.(p) and succ = t.reps.(s) in
      for seq = succ.max_contig + 1 to pred.max_contig do
        let entry = Int_tbl.find pred.store seq in
        Sim.Engine.schedule t.engine ~delay:t.intra_latency (fun () ->
            if t.reps.(s).alive then store_at t s ~seq entry)
      done;
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs t.order

let crash_replica t i =
  if i < 0 || i >= Array.length t.reps then invalid_arg "Chain.crash_replica: no such replica";
  if not t.reps.(i).alive then invalid_arg "Chain.crash_replica: already crashed";
  let was_head = match t.order with h :: _ -> h = i | [] -> false in
  t.reps.(i).alive <- false;
  set_order t (List.filter (fun id -> id <> i) t.order);
  (match t.order with
  | [] -> ()
  | new_head :: _ ->
    if was_head then begin
      (* sequence numbers the dead head assigned but never replicated are
         lost; their dedup entries must go so retransmissions are re-keyed *)
      let floor = max t.committed (t.reps.(new_head).max_contig + 1) in
      t.next_seq <- floor;
      let stale = Key_tbl.fold (fun k seq acc -> if seq >= floor then k :: acc else acc) t.dedup [] in
      List.iter
        (fun k ->
          let seq = Key_tbl.find t.dedup k in
          Key_tbl.remove t.dedup k;
          Int_tbl.remove t.confirms seq)
        stale
    end;
    resync t;
    try_commit t;
    if was_head then t.on_head_change ())
