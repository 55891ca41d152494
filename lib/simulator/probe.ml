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

(* ---- the line format: one walk digests and renders ---------------------- *)

(* A [writer] is a growable [Bytes] that receives a rendered line; the
   record path owns one only while a [stream_jsonl] channel is attached. *)
type writer = { mutable wb : Bytes.t; mutable wn : int }

let writer () = { wb = Bytes.create 256; wn = 0 }

let reserve w need =
  if w.wn + need > Bytes.length w.wb then begin
    let b = Bytes.create (max (2 * Bytes.length w.wb) (w.wn + need)) in
    Bytes.blit w.wb 0 b 0 w.wn;
    w.wb <- b
  end

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.wb w.wn n;
  w.wn <- w.wn + n

let add_sub w b off n =
  reserve w n;
  Bytes.unsafe_blit b off w.wb w.wn n;
  w.wn <- w.wn + n

(* FNV-1a, 64-bit: stable across runs, processes and architectures — the
   digest doubles as CI's determinism oracle, so no Hashtbl.hash/Marshal. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Folding a constant string [s] of length [k] into the state [h] needs
   no byte loop. XOR with an ASCII byte (every literal of the line format
   is ASCII) changes only the low 7 bits of the state, and multiplying
   never carries downwards, so the low 7 bits of every later state depend
   only on [j = h land 0x7f]. Writing [h = H + j], the high part [H] (a
   multiple of 128) just rides along as [H * p^k]. Hence
   [fnv_s h = h * p^k + T_s.(j)] mod 2^64, with
   [T_s.(j) = fnv_s j - j * p^k]: one multiply and one table read.

   A [lit] holds a literal's text and that table: 128 little-endian
   int64s, then [p^k] at [lit_pk]. The tables (1 KiB each) are filled on
   the first [create] or [to_json], not at module initialisation, so a
   binary that never installs a probe pays nothing for them. *)
type lit = { text : string; mutable table : Bytes.t }

let lit_pk = 128 * 8
let lits = ref [] (* every literal, for [fill_tables]; grown only at module initialisation *)

let lit text =
  let l = { text; table = Bytes.empty } in
  lits := l :: !lits;
  l

let fill l =
  let k = String.length l.text in
  if not (String.for_all (fun c -> Char.code c < 0x80) l.text) then
    invalid_arg ("Probe: non-ASCII literal " ^ l.text);
  let tb = Bytes.create (lit_pk + 8) in
  let pk = ref 1L in
  for _ = 1 to k do
    pk := Int64.mul !pk fnv_prime
  done;
  for j = 0 to 127 do
    let h = ref (Int64.of_int j) in
    for i = 0 to k - 1 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code l.text.[i]))) fnv_prime
    done;
    Bytes.set_int64_le tb (8 * j) (Int64.sub !h (Int64.mul (Int64.of_int j) !pk))
  done;
  Bytes.set_int64_le tb lit_pk !pk;
  l.table <- tb

(* filling is idempotent, so two domains racing here both write the same
   tables *)
let tables_filled = Atomic.make false

let fill_tables () =
  if not (Atomic.get tables_filled) then begin
    List.iter fill !lits;
    Atomic.set tables_filled true
  end

(* One walk's state: the FNV-1a state in bytes [0, 8) of [st], the decimal
   digits of the int being folded in the rest, and the writer that also
   receives the bytes, if one is given. A probe owns its scribe, so
   recording shares no mutable buffer between probes. *)
type scribe = { st : Bytes.t; mutable out : writer option }

(* '-' and the 19 digits of [min_int] *)
let digits_end = 8 + 20

let scribe out =
  let st = Bytes.create digits_end in
  Bytes.set_int64_le st 0 fnv_offset;
  { st; out }

let add_lit s l =
  let h = Bytes.get_int64_le s.st 0 in
  let tb = l.table in
  let j = Int64.to_int h land 0x7f in
  Bytes.set_int64_le s.st 0
    (Int64.add (Int64.mul h (Bytes.get_int64_le tb lit_pk)) (Bytes.get_int64_le tb (j lsl 3)));
  match s.out with None -> () | Some w -> add_string w l.text

let digit m = Char.unsafe_chr (48 - (m mod 10))

(* [n] in decimal, exactly as [%d] prints it: the digits are written
   backwards from [digits_end], working on the non-positive side so that
   [min_int] has a magnitude too, then folded in one byte at a time *)
let add_int s n =
  let st = s.st in
  let m = ref (if n < 0 then n else -n) in
  let p = ref (digits_end - 1) in
  Bytes.unsafe_set st !p (digit !m);
  while !m <= -10 do
    m := !m / 10;
    decr p;
    Bytes.unsafe_set st !p (digit !m)
  done;
  if n < 0 then begin
    decr p;
    Bytes.unsafe_set st !p '-'
  end;
  let h = ref (Bytes.get_int64_le st 0) in
  for i = !p to digits_end - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get st i)))) fnv_prime
  done;
  Bytes.set_int64_le st 0 !h;
  match s.out with None -> () | Some w -> add_sub w st !p (digits_end - !p)

(* a literal that carries its own punctuation, e.g. [,"seq":], then [v] *)
let field s l v =
  add_lit s l;
  add_int s v

(* Every literal of the line format, declared once. Each one runs from
   the end of an int field to the start of the next, so an event folds
   one literal per field plus the closing one. *)
let l_t = lit {|{"t":|}
let l_close = lit "}\n"
let l_engine_step = lit {|,"ev":"engine_step","seq":|}
let l_link_send = lit {|,"ev":"link_send","bytes":|}
let l_link_deliver = lit {|,"ev":"link_deliver"|}
let l_drop_cut = lit {|,"ev":"link_drop","why":"cut"|}
let l_drop_down = lit {|,"ev":"link_drop","why":"down"|}
let l_fifo_resend = lit {|,"ev":"fifo_resend","sender":|}
let l_label_forward = lit {|,"ev":"label_forward","dc":|}
let l_serializer_hop = lit {|,"ev":"serializer_hop","from":|}
let l_serializer_deliver = lit {|,"ev":"serializer_deliver","dc":|}
let l_delay_wait = lit {|,"ev":"delay_wait","serializer":|}
let l_chain_ack = lit {|,"ev":"chain_ack","seq":|}
let l_ser_commit = lit {|,"ev":"ser_commit","ser":|}
let l_head_change = lit {|,"ev":"head_change","ser":|}
let l_sink_emit = lit {|,"ev":"sink_emit","dc":|}
let l_proxy_apply = lit {|,"ev":"proxy_apply","dc":|}
let l_proxy_mode = lit {|,"ev":"proxy_mode","dc":|}
let l_stab_round = lit {|,"ev":"stab_round","dc":|}
let l_vec_advance = lit {|,"ev":"vec_advance","dc":|}
let l_switch_begin = lit {|,"ev":"switch_begin","epoch":|}
let l_switch_done = lit {|,"ev":"switch_done","dc":|}
let l_seq = lit {|,"seq":|}
let l_gear = lit {|,"gear":|}
let l_ts = lit {|,"ts":|}
let l_oseq = lit {|,"oseq":|}
let l_inst = lit {|,"inst":|}
let l_epoch = lit {|,"epoch":|}
let l_to = lit {|,"to":|}
let l_us = lit {|,"us":|}
let l_origin = lit {|,"origin":|}
let l_src = lit {|,"src":|}
let l_gst = lit {|,"gst":|}
let l_aux = lit {|,"aux":|}
let l_site = lit {|,"site":|}
let l_peer = lit {|,"peer":|}
let l_via_fallback = lit {|,"via":"fallback"|}
let l_via_stream = lit {|,"via":"stream"|}
let l_mode_stream = lit {|,"mode":"stream"|}
let l_mode_fallback = lit {|,"mode":"fallback"|}
let l_mode_graceful = lit {|,"mode":"graceful"|}
let l_mode_forced = lit {|,"mode":"forced"|}

(* a span's head, up to its first field, per phase and [span_kind_id] *)
let span_heads ph =
  let head sk = lit ({|,"ev":"|} ^ ph ^ {|","kind":"|} ^ span_kind_name sk ^ {|","origin":|}) in
  Array.of_list (List.map head span_kinds)

let l_span_begin = span_heads "span_begin"
let l_span_end = span_heads "span_end"

let walk_span s heads { sk; origin; seq; aux; site; peer; epoch } =
  field s heads.(span_kind_id sk) origin;
  field s l_seq seq;
  field s l_aux aux;
  field s l_site site;
  field s l_peer peer;
  field s l_epoch epoch

(* The one definition of an event's JSONL line, newline included: it
   always folds the line into [s]'s hash and writes it to [s.out] when
   one is given, so the digested bytes and every exported line cannot
   drift apart. *)
let walk s at ev =
  field s l_t (Time.to_us at);
  (match ev with
  | Engine_step { seq } -> field s l_engine_step seq
  | Link_send { size_bytes } -> field s l_link_send size_bytes
  | Link_deliver -> add_lit s l_link_deliver
  | Link_drop { in_flight } -> add_lit s (if in_flight then l_drop_cut else l_drop_down)
  | Fifo_resend { sender; seq } ->
    field s l_fifo_resend sender;
    field s l_seq seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    field s l_label_forward dc;
    field s l_gear gear;
    field s l_ts ts;
    field s l_oseq oseq;
    field s l_inst inst;
    field s l_epoch epoch
  | Serializer_hop { from_ser; to_ser } ->
    field s l_serializer_hop from_ser;
    field s l_to to_ser
  | Serializer_deliver { dc } -> field s l_serializer_deliver dc
  | Delay_wait { serializer; us } ->
    field s l_delay_wait serializer;
    field s l_us us
  | Chain_ack { seq } -> field s l_chain_ack seq
  | Ser_commit { ser; origin; oseq; epoch } ->
    field s l_ser_commit ser;
    field s l_origin origin;
    field s l_oseq oseq;
    field s l_epoch epoch
  | Head_change { ser } -> field s l_head_change ser
  | Sink_emit { dc; ts } ->
    field s l_sink_emit dc;
    field s l_ts ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback } ->
    field s l_proxy_apply dc;
    field s l_src src_dc;
    field s l_gear gear;
    field s l_ts ts;
    add_lit s (if fallback then l_via_fallback else l_via_stream)
  | Proxy_mode { dc; mode } ->
    field s l_proxy_mode dc;
    add_lit s (match mode with Stream -> l_mode_stream | Fallback -> l_mode_fallback)
  | Stab_round { dc; gst } ->
    field s l_stab_round dc;
    field s l_gst gst
  | Vec_advance { dc; src; ts } ->
    field s l_vec_advance dc;
    field s l_src src;
    field s l_ts ts
  | Switch_begin { epoch; graceful } ->
    field s l_switch_begin epoch;
    add_lit s (if graceful then l_mode_graceful else l_mode_forced)
  | Switch_done { dc; epoch } ->
    field s l_switch_done dc;
    field s l_epoch epoch
  | Span_begin sp -> walk_span s l_span_begin sp
  | Span_end sp -> walk_span s l_span_end sp);
  add_lit s l_close

(* one line without its newline, folded into a throwaway hash *)
let to_json at ev =
  fill_tables ();
  let w = writer () in
  walk (scribe (Some w)) at ev;
  Bytes.sub_string w.wb 0 (w.wn - 1)

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
let put_uleb b p v =
  let p = ref p and v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  !p + 1

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

(* The open spans, keyed by all seven span fields, in one flat [int array]
   with linear probing. Slot [i] is the [slot_ints] ints from
   [i * slot_ints]: the kind id + 1 (0 marks a free slot), the six int
   fields, and the begin time. A begin and an end each walk one probe
   sequence and allocate nothing beyond the occasional doubling; the table
   keeps no pointer to the event. An end frees its slot by shifting the
   rest of the probe run back, so no tombstones build up. *)
module Open_spans = struct
  type t = { mutable a : int array; mutable bits : int; mutable n : int }

  let slot_ints = 8

  let create () = { a = Array.make (slot_ints lsl 6) 0; bits = 6; n = 0 }

  (* Fibonacci hashing: the top [bits] bits of a multiplicative mix *)
  let home bits k origin seq aux site peer epoch =
    let mix h x = (h lxor x) * 0x1e3779b97f4a7c15 in
    mix (mix (mix (mix (mix (mix (mix 0 k) origin) seq) aux) site) peer) epoch
    lsr (Sys.int_size - bits)

  let home_of_slot bits a o =
    home bits a.(o) a.(o + 1) a.(o + 2) a.(o + 3) a.(o + 4) a.(o + 5) a.(o + 6)

  (* the slot holding span [s] of kind id [kid], or the free slot that
     ends its probe run *)
  let find t kid s =
    let a = t.a in
    let k = kid + 1 in
    let mask = (1 lsl t.bits) - 1 in
    let i = ref (home t.bits k s.origin s.seq s.aux s.site s.peer s.epoch) in
    while
      let o = !i * slot_ints in
      let ko = Array.unsafe_get a o in
      ko <> 0
      && not
           (ko = k
           && Array.unsafe_get a (o + 1) = s.origin
           && Array.unsafe_get a (o + 2) = s.seq
           && Array.unsafe_get a (o + 3) = s.aux
           && Array.unsafe_get a (o + 4) = s.site
           && Array.unsafe_get a (o + 5) = s.peer
           && Array.unsafe_get a (o + 6) = s.epoch)
    do
      i := (!i + 1) land mask
    done;
    !i

  let is_free t i = t.a.(i * slot_ints) = 0
  let began t i = t.a.((i * slot_ints) + 7)

  let grow t =
    let old = t.a in
    let bits = t.bits + 1 in
    let a = Array.make (slot_ints lsl bits) 0 in
    let mask = (1 lsl bits) - 1 in
    for o = 0 to (Array.length old / slot_ints) - 1 do
      let o = o * slot_ints in
      if old.(o) <> 0 then begin
        let i = ref (home_of_slot bits old o) in
        while a.(!i * slot_ints) <> 0 do
          i := (!i + 1) land mask
        done;
        Array.blit old o a (!i * slot_ints) slot_ints
      end
    done;
    t.a <- a;
    t.bits <- bits

  (* open span [s] at free slot [i] (from [find]) *)
  let add t i kid s at =
    let a = t.a and o = i * slot_ints in
    a.(o) <- kid + 1;
    a.(o + 1) <- s.origin;
    a.(o + 2) <- s.seq;
    a.(o + 3) <- s.aux;
    a.(o + 4) <- s.site;
    a.(o + 5) <- s.peer;
    a.(o + 6) <- s.epoch;
    a.(o + 7) <- at;
    t.n <- t.n + 1;
    if 2 * t.n > 1 lsl t.bits then grow t

  (* free occupied slot [i]: each later entry of the probe run moves into
     the hole unless its home lies cyclically in (hole, j] *)
  let remove t i =
    let a = t.a in
    let mask = (1 lsl t.bits) - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while a.(!j * slot_ints) <> 0 do
      let h = home_of_slot t.bits a (!j * slot_ints) in
      let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
      if not stays then begin
        Array.blit a (!j * slot_ints) a (!hole * slot_ints) slot_ints;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    a.(!hole * slot_ints) <- 0;
    t.n <- t.n - 1
end

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
  sc : scribe; (* the running digest; writes only while streaming *)
  counts : int array; (* indexed by [kind_id] *)
  (* span pairing state: lives in the probe (not in the kept trace) so
     matched totals are available even on count-only (~keep:false) probes,
     which is what bench's flame table runs under *)
  open_spans : Open_spans.t;
  span_us : int array; (* indexed by [span_kind_id] *)
  span_n : int array;
  mutable span_orphans : int;
  mutable stream : (out_channel * writer) option;
  mutable subscribers : (Time.t -> event -> unit) list; (* in subscription order *)
}

let create ?(keep = true) () =
  fill_tables ();
  (* [pos = chunk_size] makes the first kept event allocate the first chunk *)
  { keep; chunks = [||]; n_chunks = 0; cur = Bytes.empty; pos = chunk_size; last_us = 0; len = 0;
    sc = scribe None; counts = Array.make n_kinds 0; open_spans = Open_spans.create ();
    span_us = Array.make n_span_kinds 0; span_n = Array.make n_span_kinds 0; span_orphans = 0;
    stream = None; subscribers = [] }

let count t = t.len

let stream_jsonl t oc =
  let w = writer () in
  t.sc.out <- Some w;
  t.stream <- Some (oc, w)

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
  (match t.stream with
  | None -> walk t.sc at ev
  | Some (oc, w) ->
    w.wn <- 0;
    walk t.sc at ev;
    output oc w.wb 0 w.wn);
  let kid = kind_id ev in
  t.counts.(kid) <- t.counts.(kid) + 1;
  (match ev with
  | Span_begin s ->
    (* keep the first begin: duplicates (none are expected from the core
       instrumentation) must not reset an open interval *)
    let i = Open_spans.find t.open_spans (span_kind_id s.sk) s in
    if Open_spans.is_free t.open_spans i then
      Open_spans.add t.open_spans i (span_kind_id s.sk) s (Time.to_us at)
  | Span_end s ->
    let sid = span_kind_id s.sk in
    let i = Open_spans.find t.open_spans sid s in
    if Open_spans.is_free t.open_spans i then t.span_orphans <- t.span_orphans + 1
    else begin
      t.span_us.(sid) <- t.span_us.(sid) + (Time.to_us at - Open_spans.began t.open_spans i);
      t.span_n.(sid) <- t.span_n.(sid) + 1;
      Open_spans.remove t.open_spans i
    end
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
let open_span_count t = t.open_spans.Open_spans.n

let digest t = Printf.sprintf "%016Lx" (Bytes.get_int64_le t.sc.st 0)

let write_jsonl t oc =
  require_kept t "write_jsonl";
  let w = writer () in
  let s = scribe (Some w) in
  iter t (fun at ev ->
      w.wn <- 0;
      walk s at ev;
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
