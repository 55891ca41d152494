type mode = Stream | Fallback

type span_kind =
  | Sk_sink_hold
  | Sk_attach
  | Sk_chain
  | Sk_delay_hop
  | Sk_hop
  | Sk_delay_egress
  | Sk_egress
  | Sk_proxy_order
  | Sk_bulk
  | Sk_stab

let span_kind_name = function
  | Sk_sink_hold -> "sink_hold"
  | Sk_attach -> "attach"
  | Sk_chain -> "chain"
  | Sk_delay_hop -> "delay_hop"
  | Sk_hop -> "hop"
  | Sk_delay_egress -> "delay_egress"
  | Sk_egress -> "egress"
  | Sk_proxy_order -> "proxy_order"
  | Sk_bulk -> "bulk"
  | Sk_stab -> "stab"

let span_kinds =
  [ Sk_sink_hold; Sk_attach; Sk_chain; Sk_delay_hop; Sk_hop; Sk_delay_egress; Sk_egress;
    Sk_proxy_order; Sk_bulk; Sk_stab ]

let n_span_kinds = 10

(* dense id per span kind, in [span_kinds] order *)
let span_kind_id = function
  | Sk_sink_hold -> 0
  | Sk_attach -> 1
  | Sk_chain -> 2
  | Sk_delay_hop -> 3
  | Sk_hop -> 4
  | Sk_delay_egress -> 5
  | Sk_egress -> 6
  | Sk_proxy_order -> 7
  | Sk_bulk -> 8
  | Sk_stab -> 9

type span = {
  sk : span_kind;
  origin : int;
  seq : int;
  aux : int;
  site : int;
  peer : int;
  epoch : int;
}

type event =
  | Engine_step of { seq : int }
  | Link_send of { size_bytes : int }
  | Link_deliver
  | Link_drop of { in_flight : bool }
  | Fifo_resend of { sender : int; seq : int }
  | Label_forward of { dc : int; gear : int; ts : int; oseq : int; inst : int; epoch : int }
  | Serializer_hop of { from_ser : int; to_ser : int }
  | Serializer_deliver of { dc : int }
  | Delay_wait of { serializer : int; us : int }
  | Chain_ack of { seq : int }
  | Ser_commit of { ser : int; origin : int; oseq : int; epoch : int }
  | Head_change of { ser : int }
  | Sink_emit of { dc : int; ts : int }
  | Proxy_apply of { dc : int; src_dc : int; gear : int; ts : int; fallback : bool }
  | Proxy_mode of { dc : int; mode : mode }
  | Stab_round of { dc : int; gst : int }
  | Vec_advance of { dc : int; src : int; ts : int }
  | Switch_begin of { epoch : int; graceful : bool }
  | Switch_done of { dc : int; epoch : int }
  | Span_begin of span
  | Span_end of span

(* Interned kind ids: per-event counting bumps a dense [int array] slot
   instead of hashing the kind string. Span begins and ends share one
   "span.<kind>" bucket, matching [kind]. *)
let n_point_kinds = 19
let n_kinds = n_point_kinds + n_span_kinds

let kind_id = function
  | Engine_step _ -> 0
  | Link_send _ -> 1
  | Link_deliver -> 2
  | Link_drop _ -> 3
  | Fifo_resend _ -> 4
  | Label_forward _ -> 5
  | Serializer_hop _ -> 6
  | Serializer_deliver _ -> 7
  | Delay_wait _ -> 8
  | Chain_ack _ -> 9
  | Ser_commit _ -> 10
  | Head_change _ -> 11
  | Sink_emit _ -> 12
  | Proxy_apply _ -> 13
  | Proxy_mode _ -> 14
  | Stab_round _ -> 15
  | Vec_advance _ -> 16
  | Switch_begin _ -> 17
  | Switch_done _ -> 18
  | Span_begin s | Span_end s -> n_point_kinds + span_kind_id s.sk

let kind_names =
  Array.append
    [| "engine_step"; "link_send"; "link_deliver"; "link_drop"; "fifo_resend"; "label_forward";
       "serializer_hop"; "serializer_deliver"; "delay_wait"; "chain_ack"; "ser_commit";
       "head_change"; "sink_emit"; "proxy_apply"; "proxy_mode"; "stab_round"; "vec_advance";
       "switch_begin"; "switch_done" |]
    (Array.of_list (List.map (fun sk -> "span." ^ span_kind_name sk) span_kinds))

(* ---- rendering ------------------------------------------------------------ *)

(* One renderer backs the digest, [to_json], [write_jsonl] and
   [stream_jsonl]: it appends straight into a caller-owned [writer], with
   no Printf and no intermediate strings, so the hashed bytes and every
   exported line are the same bytes by construction. A [writer] is a
   growable [Bytes] the record path owns and reuses, so the digest reads
   it with [Bytes.unsafe_get] rather than [Buffer.nth]'s checked call. *)
type writer = { mutable wb : Bytes.t; mutable wn : int }

let writer () = { wb = Bytes.create 256; wn = 0 }

let reserve w need =
  if w.wn + need > Bytes.length w.wb then begin
    let b = Bytes.create (max (2 * Bytes.length w.wb) (w.wn + need)) in
    Bytes.blit w.wb 0 b 0 w.wn;
    w.wb <- b
  end

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.wb w.wn c;
  w.wn <- w.wn + 1

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.wb w.wn n;
  w.wn <- w.wn + n

(* the digits of [m <= 0], most significant first: recursing on [m / 10]
   keeps every division by a constant, and working on the non-positive
   side gives [min_int] a magnitude too *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  add_char buf (Char.unsafe_chr (48 - (m mod 10)))

(* [n] in decimal, exactly as [%d] prints it *)
let add_int buf n =
  if n < 0 then add_char buf '-';
  add_digits buf (if n < 0 then n else -n)

(* [key] carries its own punctuation, e.g. [,"seq":] *)
let field buf key v =
  add_string buf key;
  add_int buf v

let render_span buf ph { sk; origin; seq; aux; site; peer; epoch } =
  add_string buf ph;
  add_string buf (span_kind_name sk);
  field buf {|","origin":|} origin; field buf {|,"seq":|} seq; field buf {|,"aux":|} aux;
  field buf {|,"site":|} site; field buf {|,"peer":|} peer; field buf {|,"epoch":|} epoch

let render buf at ev =
  let str = add_string in
  field buf {|{"t":|} (Time.to_us at);
  str buf {|,"ev":"|};
  (match ev with
  | Engine_step { seq } -> field buf {|engine_step","seq":|} seq
  | Link_send { size_bytes } -> field buf {|link_send","bytes":|} size_bytes
  | Link_deliver -> str buf {|link_deliver"|}
  | Link_drop { in_flight } ->
    str buf (if in_flight then {|link_drop","why":"cut"|} else {|link_drop","why":"down"|})
  | Fifo_resend { sender; seq } ->
    field buf {|fifo_resend","sender":|} sender; field buf {|,"seq":|} seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    field buf {|label_forward","dc":|} dc; field buf {|,"gear":|} gear; field buf {|,"ts":|} ts;
    field buf {|,"oseq":|} oseq; field buf {|,"inst":|} inst; field buf {|,"epoch":|} epoch
  | Serializer_hop { from_ser; to_ser } ->
    field buf {|serializer_hop","from":|} from_ser; field buf {|,"to":|} to_ser
  | Serializer_deliver { dc } -> field buf {|serializer_deliver","dc":|} dc
  | Delay_wait { serializer; us } ->
    field buf {|delay_wait","serializer":|} serializer; field buf {|,"us":|} us
  | Chain_ack { seq } -> field buf {|chain_ack","seq":|} seq
  | Ser_commit { ser; origin; oseq; epoch } ->
    field buf {|ser_commit","ser":|} ser; field buf {|,"origin":|} origin;
    field buf {|,"oseq":|} oseq; field buf {|,"epoch":|} epoch
  | Head_change { ser } -> field buf {|head_change","ser":|} ser
  | Sink_emit { dc; ts } -> field buf {|sink_emit","dc":|} dc; field buf {|,"ts":|} ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback } ->
    field buf {|proxy_apply","dc":|} dc; field buf {|,"src":|} src_dc;
    field buf {|,"gear":|} gear; field buf {|,"ts":|} ts;
    str buf (if fallback then {|,"via":"fallback"|} else {|,"via":"stream"|})
  | Proxy_mode { dc; mode } ->
    field buf {|proxy_mode","dc":|} dc;
    str buf (match mode with Stream -> {|,"mode":"stream"|} | Fallback -> {|,"mode":"fallback"|})
  | Stab_round { dc; gst } -> field buf {|stab_round","dc":|} dc; field buf {|,"gst":|} gst
  | Vec_advance { dc; src; ts } ->
    field buf {|vec_advance","dc":|} dc; field buf {|,"src":|} src; field buf {|,"ts":|} ts
  | Switch_begin { epoch; graceful } ->
    field buf {|switch_begin","epoch":|} epoch;
    str buf (if graceful then {|,"mode":"graceful"|} else {|,"mode":"forced"|})
  | Switch_done { dc; epoch } -> field buf {|switch_done","dc":|} dc; field buf {|,"epoch":|} epoch
  | Span_begin s -> render_span buf {|span_begin","kind":"|} s
  | Span_end s -> render_span buf {|span_end","kind":"|} s);
  add_char buf '}'

(* the JSONL form: one rendered object and its newline *)
let render_line w at ev =
  w.wn <- 0;
  render w at ev;
  add_char w '\n'

let to_json at ev =
  let w = writer () in
  render w at ev;
  Bytes.sub_string w.wb 0 w.wn

(* FNV-1a, 64-bit: stable across runs, processes and architectures — the
   digest doubles as CI's determinism oracle, so no Hashtbl.hash/Marshal.
   The running state lives in an 8-byte [Bytes], and the loop's int64 ref
   is a local the native compiler keeps unboxed, so folding a line in
   allocates nothing. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold state w =
  let h = ref (Bytes.get_int64_le state 0) in
  let b = w.wb in
  for i = 0 to w.wn - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) fnv_prime
  done;
  Bytes.set_int64_le state 0 !h

(* ---- the packed kept trace ---------------------------------------------- *)

(* A kept event is appended to fixed-size [Bytes] chunks: the GC never
   scans or promotes their contents, where an [event array] would hold
   one boxed block per event for the major GC to mark. An event is
   encoded as one tag byte, then the zigzag-LEB128 delta of its time from
   the previous event's, then each int field as a zigzag-LEB128 varint.
   The tag is the [kind_id] (span ends take [n_span_kinds] more than
   begins); the bool-like field of [Link_drop], [Proxy_apply],
   [Proxy_mode] and [Switch_begin] rides in the tag's [tag_flag] bit. A
   varint of a 63-bit int is at most 9 bytes, so an event — tag, time and
   at most six fields — is at most [max_event_bytes]: a chunk is sealed
   with [end_of_chunk] once the next event might not fit, and no event
   straddles two chunks. *)
let chunk_size = 65536
let max_event_bytes = 1 + (9 * 7)
let tag_flag = 0x80
let end_of_chunk = 0xff

(* LEB128 of [v] read as unsigned; returns the position after it *)
let rec put_uleb b p v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_uleb b (p + 1) (v lsr 7)
  end

(* zigzag: small magnitudes of either sign get short varints *)
let put b p n = put_uleb b p ((n lsl 1) lxor (n asr 62))

let tag_of kid = function
  | Span_end _ -> kid + n_span_kinds
  | Link_drop { in_flight = true }
  | Proxy_apply { fallback = true; _ }
  | Proxy_mode { mode = Fallback; _ }
  | Switch_begin { graceful = true; _ } ->
    kid lor tag_flag
  | _ -> kid

(* the fields after the tag and time; returns the position after them *)
let put_fields b p = function
  | Engine_step { seq } -> put b p seq
  | Link_send { size_bytes } -> put b p size_bytes
  | Link_deliver | Link_drop _ -> p
  | Fifo_resend { sender; seq } -> put b (put b p sender) seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    let p = put b (put b (put b p dc) gear) ts in
    put b (put b (put b p oseq) inst) epoch
  | Serializer_hop { from_ser; to_ser } -> put b (put b p from_ser) to_ser
  | Serializer_deliver { dc } -> put b p dc
  | Delay_wait { serializer; us } -> put b (put b p serializer) us
  | Chain_ack { seq } -> put b p seq
  | Ser_commit { ser; origin; oseq; epoch } -> put b (put b (put b (put b p ser) origin) oseq) epoch
  | Head_change { ser } -> put b p ser
  | Sink_emit { dc; ts } -> put b (put b p dc) ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback = _ } ->
    put b (put b (put b (put b p dc) src_dc) gear) ts
  | Proxy_mode { dc; mode = _ } -> put b p dc
  | Stab_round { dc; gst } -> put b (put b p dc) gst
  | Vec_advance { dc; src; ts } -> put b (put b (put b p dc) src) ts
  | Switch_begin { epoch; graceful = _ } -> put b p epoch
  | Switch_done { dc; epoch } -> put b (put b p dc) epoch
  | Span_begin { sk = _; origin; seq; aux; site; peer; epoch }
  | Span_end { sk = _; origin; seq; aux; site; peer; epoch } ->
    let p = put b (put b (put b p origin) seq) aux in
    put b (put b (put b p site) peer) epoch

(* decoding reads through a cursor; fields are bound in encoding order
   with [let], never inside one constructor application, whose argument
   order OCaml leaves unspecified *)
type cursor = { mutable cb : Bytes.t; mutable cp : int }

let rec get_uleb c acc shift =
  let byte = Bytes.get_uint8 c.cb c.cp in
  c.cp <- c.cp + 1;
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else get_uleb c acc (shift + 7)

let get c =
  let v = get_uleb c 0 0 in
  (v lsr 1) lxor -(v land 1)

let span_kind_of_id = Array.of_list span_kinds

let get_span c sk =
  let origin = get c in
  let seq = get c in
  let aux = get c in
  let site = get c in
  let peer = get c in
  let epoch = get c in
  { sk; origin; seq; aux; site; peer; epoch }

let get_event c tag =
  let flag = tag land tag_flag <> 0 in
  match tag land lnot tag_flag with
  | 0 -> Engine_step { seq = get c }
  | 1 -> Link_send { size_bytes = get c }
  | 2 -> Link_deliver
  | 3 -> Link_drop { in_flight = flag }
  | 4 ->
    let sender = get c in
    let seq = get c in
    Fifo_resend { sender; seq }
  | 5 ->
    let dc = get c in
    let gear = get c in
    let ts = get c in
    let oseq = get c in
    let inst = get c in
    let epoch = get c in
    Label_forward { dc; gear; ts; oseq; inst; epoch }
  | 6 ->
    let from_ser = get c in
    let to_ser = get c in
    Serializer_hop { from_ser; to_ser }
  | 7 -> Serializer_deliver { dc = get c }
  | 8 ->
    let serializer = get c in
    let us = get c in
    Delay_wait { serializer; us }
  | 9 -> Chain_ack { seq = get c }
  | 10 ->
    let ser = get c in
    let origin = get c in
    let oseq = get c in
    let epoch = get c in
    Ser_commit { ser; origin; oseq; epoch }
  | 11 -> Head_change { ser = get c }
  | 12 ->
    let dc = get c in
    let ts = get c in
    Sink_emit { dc; ts }
  | 13 ->
    let dc = get c in
    let src_dc = get c in
    let gear = get c in
    let ts = get c in
    Proxy_apply { dc; src_dc; gear; ts; fallback = flag }
  | 14 -> Proxy_mode { dc = get c; mode = (if flag then Fallback else Stream) }
  | 15 ->
    let dc = get c in
    let gst = get c in
    Stab_round { dc; gst }
  | 16 ->
    let dc = get c in
    let src = get c in
    let ts = get c in
    Vec_advance { dc; src; ts }
  | 17 -> Switch_begin { epoch = get c; graceful = flag }
  | 18 ->
    let dc = get c in
    let epoch = get c in
    Switch_done { dc; epoch }
  | k when k < n_point_kinds + n_span_kinds ->
    Span_begin (get_span c span_kind_of_id.(k - n_point_kinds))
  | k when k < n_kinds + n_span_kinds -> Span_end (get_span c span_kind_of_id.(k - n_kinds))
  | k -> invalid_arg (Printf.sprintf "Probe.iter: corrupt trace tag %d" k)

(* ---- the probe ------------------------------------------------------------ *)

(* span pairing keys: an integer hash and field-wise equality, instead of
   the polymorphic hash and compare walking each record *)
module Span_tbl = Hashtbl.Make (struct
  type t = span

  let equal a b =
    span_kind_id a.sk = span_kind_id b.sk
    && a.origin = b.origin && a.seq = b.seq && a.aux = b.aux && a.site = b.site
    && a.peer = b.peer && a.epoch = b.epoch

  let hash s =
    let mix h x = (h * 0x100000001b3) lxor x in
    let h = mix (mix (mix (span_kind_id s.sk) s.origin) s.seq) s.aux in
    let h = mix (mix (mix h s.site) s.peer) s.epoch in
    (h lxor (h lsr 29)) land max_int
end)

type t = {
  keep : bool;
  (* the kept trace (see above): [chunks.(0 .. n_chunks - 1)], the last of
     which is [cur], filled up to [pos]; a count-only probe never
     allocates a chunk *)
  mutable chunks : Bytes.t array;
  mutable n_chunks : int;
  mutable cur : Bytes.t;
  mutable pos : int;
  mutable last_us : int; (* the previous kept event's time, for the delta *)
  mutable len : int;
  hash : Bytes.t; (* FNV-1a state, see [fnv_fold] *)
  line : writer; (* the record path's reused render buffer *)
  counts : int array; (* indexed by [kind_id] *)
  (* span pairing state: lives in the probe (not in the kept trace) so
     matched totals are available even on count-only (~keep:false) probes,
     which is what bench's flame table runs under *)
  open_spans : Time.t Span_tbl.t;
  span_us : int array; (* indexed by [span_kind_id] *)
  span_n : int array;
  mutable span_orphans : int;
  mutable stream : out_channel option;
  mutable subscribers : (Time.t -> event -> unit) list; (* in subscription order *)
}

let create ?(keep = true) () =
  let hash = Bytes.create 8 in
  Bytes.set_int64_le hash 0 fnv_offset;
  (* [pos = chunk_size] makes the first kept event allocate the first chunk *)
  { keep; chunks = [||]; n_chunks = 0; cur = Bytes.empty; pos = chunk_size; last_us = 0; len = 0;
    hash; line = writer (); counts = Array.make n_kinds 0; open_spans = Span_tbl.create 64;
    span_us = Array.make n_span_kinds 0; span_n = Array.make n_span_kinds 0; span_orphans = 0;
    stream = None; subscribers = [] }

let count t = t.len

let stream_jsonl t oc = t.stream <- Some oc

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let new_chunk t =
  if t.pos < chunk_size then Bytes.unsafe_set t.cur t.pos (Char.unsafe_chr end_of_chunk);
  if t.n_chunks = Array.length t.chunks then begin
    let a = Array.make (max 8 (2 * t.n_chunks)) Bytes.empty in
    Array.blit t.chunks 0 a 0 t.n_chunks;
    t.chunks <- a
  end;
  let b = Bytes.create chunk_size in
  t.chunks.(t.n_chunks) <- b;
  t.n_chunks <- t.n_chunks + 1;
  t.cur <- b;
  t.pos <- 0

let keep_event t kid at ev =
  if t.pos + max_event_bytes > chunk_size then new_chunk t;
  let b = t.cur in
  let us = Time.to_us at in
  Bytes.unsafe_set b t.pos (Char.unsafe_chr (tag_of kid ev));
  let p = put b (t.pos + 1) (us - t.last_us) in
  t.pos <- put_fields b p ev;
  t.last_us <- us

(* a direct loop: a [List.iter] over a partial application would allocate
   a closure per event *)
let rec notify at ev = function
  | [] -> ()
  | f :: rest ->
    f at ev;
    notify at ev rest

let record t at ev =
  render_line t.line at ev;
  fnv_fold t.hash t.line;
  (match t.stream with Some oc -> output oc t.line.wb 0 t.line.wn | None -> ());
  let kid = kind_id ev in
  t.counts.(kid) <- t.counts.(kid) + 1;
  (match ev with
  | Span_begin s ->
    (* keep the first begin: duplicates (none are expected from the core
       instrumentation) must not reset an open interval *)
    if not (Span_tbl.mem t.open_spans s) then Span_tbl.replace t.open_spans s at
  | Span_end s -> (
    match Span_tbl.find_opt t.open_spans s with
    | Some t0 ->
      Span_tbl.remove t.open_spans s;
      let sid = span_kind_id s.sk in
      t.span_us.(sid) <- t.span_us.(sid) + (Time.to_us at - Time.to_us t0);
      t.span_n.(sid) <- t.span_n.(sid) + 1
    | None -> t.span_orphans <- t.span_orphans + 1)
  | _ -> ());
  if t.keep then keep_event t kid at ev;
  t.len <- t.len + 1;
  notify at ev t.subscribers

let require_kept t fn =
  if not t.keep then invalid_arg ("Probe." ^ fn ^ ": probe created with ~keep:false")

let iter t f =
  require_kept t "iter";
  let c = { cb = Bytes.empty; cp = 0 } in
  let last_us = ref 0 in
  for i = 0 to t.n_chunks - 1 do
    c.cb <- t.chunks.(i);
    c.cp <- 0;
    let limit = if i = t.n_chunks - 1 then t.pos else chunk_size in
    while c.cp < limit && Bytes.get_uint8 c.cb c.cp <> end_of_chunk do
      let tag = Bytes.get_uint8 c.cb c.cp in
      c.cp <- c.cp + 1;
      last_us := !last_us + get c;
      f (Time.of_us !last_us) (get_event c tag)
    done
  done

(* rebuild the historical (name, count) view: nonzero slots only, so
   kinds a run never emitted stay absent, name-sorted *)
let sorted_nonzero names arr =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if arr.(i) <> 0 then acc := (names i, arr.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let span_name_of_id i = span_kind_name span_kind_of_id.(i)
let counts_by_kind t = sorted_nonzero (fun i -> kind_names.(i)) t.counts
let span_totals_us t = sorted_nonzero span_name_of_id t.span_us
let span_counts t = sorted_nonzero span_name_of_id t.span_n
let span_orphans t = t.span_orphans
let open_span_count t = Span_tbl.length t.open_spans

let digest t = Printf.sprintf "%016Lx" (Bytes.get_int64_le t.hash 0)

let write_jsonl t oc =
  require_kept t "write_jsonl";
  let w = writer () in
  iter t (fun at ev ->
      render_line w at ev;
      output oc w.wb 0 w.wn)

(* ---- the global sink ---------------------------------------------------- *)

(* One process-wide sink, Logs-reporter style: instrumentation points all
   over the simulator and the systems built on it stay a single branch on
   the fast path, and nothing has to thread a probe handle through every
   constructor. The simulator is single-threaded; installs are scoped by
   the observability entry points (smoke runs, tests). *)
let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let active () = match !current with None -> false | Some _ -> true (* no polymorphic compare *)

let emit ~at ev = match !current with None -> () | Some t -> record t at ev

let with_probe t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f
