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

module Kind = struct
  type t =
    | Engine_step
    | Link_send
    | Link_deliver
    | Link_drop
    | Fifo_resend
    | Label_forward
    | Serializer_hop
    | Serializer_deliver
    | Delay_wait
    | Chain_ack
    | Ser_commit
    | Head_change
    | Sink_emit
    | Proxy_apply
    | Proxy_mode
    | Stab_round
    | Vec_advance
    | Switch_begin
    | Switch_done
    | Span_begin
    | Span_end
end

(* The flyweight an event is recorded from: the kind, its flag and up to
   six int fields, in the order of its line (see [descs]). A probe owns
   one and every emission overwrites it, so recording builds no value. *)
type view = {
  mutable kind : Kind.t;
  mutable span_kind : span_kind;
  mutable flag : bool;
  mutable f0 : int;
  mutable f1 : int;
  mutable f2 : int;
  mutable f3 : int;
  mutable f4 : int;
  mutable f5 : int;
}

let view () =
  { kind = Kind.Engine_step; span_kind = Sk_sink_hold; flag = false; f0 = 0; f1 = 0; f2 = 0;
    f3 = 0; f4 = 0; f5 = 0 }

let arg v = function 0 -> v.f0 | 1 -> v.f1 | 2 -> v.f2 | 3 -> v.f3 | 4 -> v.f4 | _ -> v.f5

let set_arg v i x =
  match i with
  | 0 -> v.f0 <- x
  | 1 -> v.f1 <- x
  | 2 -> v.f2 <- x
  | 3 -> v.f3 <- x
  | 4 -> v.f4 <- x
  | _ -> v.f5 <- x

(* A tag names one line shape: the 19 point kinds in [Kind] order, then a
   span begin per span kind, then a span end per span kind. It indexes
   [descs] and is the kept trace's tag byte. Per-event counting bumps a
   dense bucket per tag, where a span's begin and end share one
   "span.<kind>" bucket. *)
let n_point_kinds = 19
let n_kinds = n_point_kinds + n_span_kinds
let n_tags = n_kinds + n_span_kinds

(* a point kind's tag; a span's tag adds its [span_kind_id] *)
let kind_tag : Kind.t -> int = function
  | Kind.Engine_step -> 0
  | Kind.Link_send -> 1
  | Kind.Link_deliver -> 2
  | Kind.Link_drop -> 3
  | Kind.Fifo_resend -> 4
  | Kind.Label_forward -> 5
  | Kind.Serializer_hop -> 6
  | Kind.Serializer_deliver -> 7
  | Kind.Delay_wait -> 8
  | Kind.Chain_ack -> 9
  | Kind.Ser_commit -> 10
  | Kind.Head_change -> 11
  | Kind.Sink_emit -> 12
  | Kind.Proxy_apply -> 13
  | Kind.Proxy_mode -> 14
  | Kind.Stab_round -> 15
  | Kind.Vec_advance -> 16
  | Kind.Switch_begin -> 17
  | Kind.Switch_done -> 18
  | Kind.Span_begin -> n_point_kinds
  | Kind.Span_end -> n_kinds

let bucket tag = if tag < n_kinds then tag else tag - n_span_kinds

(* ---- the digest walk: literals and ints ----------------------------------- *)

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

(* The digest is {!Fnv}'s FNV-1a. Folding a constant string [s] of
   length [k] into the state [h] needs no byte loop. XOR with an ASCII
   byte (every literal of the line format is ASCII) changes only the low
   7 bits of the state, and multiplying never carries downwards, so the
   low 7 bits of every later state depend only on [j = h land 0x7f].
   Writing [h = H + j], the high part [H] (a multiple of 128) just rides
   along as [H * p^k]. Hence
   [fnv_s h = h * p^k + T_s.(j)] mod 2^64, with
   [T_s.(j) = fnv_s j - j * p^k]: one multiply and one table read.

   A [lit] holds a literal's text and that table: 128 little-endian
   int64s, then [p^k] at [lit_pk]. The tables (1 KiB each) are filled on
   the first [create], not at module initialisation, so a binary that
   never installs a probe pays nothing for them. *)
type lit = { text : string; mutable table : Bytes.t }

let lit_pk = 128 * 8
let lits = ref [] (* every literal, for [fill_tables]; grown only at module initialisation *)

(* literals are shared by text: [,"ts":] is one table however many kinds
   carry a [ts] field *)
let lit text =
  match List.find_opt (fun l -> String.equal l.text text) !lits with
  | Some l -> l
  | None ->
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
    pk := Int64.mul !pk Fnv.prime
  done;
  for j = 0 to 127 do
    let h = ref (Int64.of_int j) in
    for i = 0 to k - 1 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code l.text.[i]))) Fnv.prime
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
  Bytes.set_int64_le st 0 Fnv.offset;
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
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get st i)))) Fnv.prime
  done;
  Bytes.set_int64_le st 0 !h;
  match s.out with None -> () | Some w -> add_sub w st !p (digits_end - !p)

(* a literal that carries its own punctuation, e.g. [,"seq":], then [v] *)
let field s l v =
  add_lit s l;
  add_int s v

(* ---- the line format: one descriptor per tag ------------------------------ *)

(* Every line is [{"t":<time>], its tag's [head], its fields (the first
   right after the head, each later one after its literal in [keys]), the
   flag's literal if the kind has a flag, and [}\n]. So each literal runs
   from the end of an int field to the start of the next, and a line folds
   one literal per int field, the flag's if any, and the closing one.
   FNV-1a folds bytes in order, so where the line is cut into literals
   does not change the digest. *)
type desc = {
  kind : Kind.t;
  sk : span_kind; (* a span tag's span kind; [Sk_sink_hold] on point tags *)
  name : string; (* the tag's counts bucket *)
  head : lit;
  keys : lit array;
  arity : int;
  choice : (lit * lit) option; (* the flag's literal when it is set, and when clear *)
}

let l_t = lit {|{"t":|}
let l_close = lit "}\n"

let desc ?(sk = Sk_sink_hold) ?(sub = "") ?flag kind ~name ~ev fields =
  let key f = Printf.sprintf {|,"%s":|} f in
  let first, rest = match fields with [] -> ("", []) | f :: rest -> (key f, rest) in
  let choice (field, on, off) =
    let l v = lit (Printf.sprintf {|,"%s":"%s"|} field v) in
    (l on, l off)
  in
  { kind; sk; name; head = lit (Printf.sprintf {|,"ev":"%s"%s%s|} ev sub first);
    keys = Array.of_list (List.map (fun f -> lit (key f)) rest); arity = List.length fields;
    choice = Option.map choice flag }

let point ?flag kind ev fields = desc ?flag kind ~name:ev ~ev fields

let spans kind ev =
  List.map
    (fun sk ->
      let n = span_kind_name sk in
      desc ~sk ~sub:(Printf.sprintf {|,"kind":"%s"|} n) kind ~name:("span." ^ n) ~ev
        [ "origin"; "seq"; "aux"; "site"; "peer"; "epoch" ])
    span_kinds

(* The one definition of the line format. A flag is given as (field, value
   when set, value when clear). *)
let descs =
  let a =
    Array.of_list
      ([ point Kind.Engine_step "engine_step" [ "seq" ];
         point Kind.Link_send "link_send" [ "bytes" ];
         point Kind.Link_deliver "link_deliver" [];
         point Kind.Link_drop "link_drop" [] ~flag:("why", "cut", "down");
         point Kind.Fifo_resend "fifo_resend" [ "sender"; "seq" ];
         point Kind.Label_forward "label_forward" [ "dc"; "gear"; "ts"; "oseq"; "inst"; "epoch" ];
         point Kind.Serializer_hop "serializer_hop" [ "from"; "to" ];
         point Kind.Serializer_deliver "serializer_deliver" [ "dc" ];
         point Kind.Delay_wait "delay_wait" [ "serializer"; "us" ];
         point Kind.Chain_ack "chain_ack" [ "seq" ];
         point Kind.Ser_commit "ser_commit" [ "ser"; "origin"; "oseq"; "epoch" ];
         point Kind.Head_change "head_change" [ "ser" ];
         point Kind.Sink_emit "sink_emit" [ "dc"; "ts" ];
         point Kind.Proxy_apply "proxy_apply" [ "dc"; "src"; "gear"; "ts" ]
           ~flag:("via", "fallback", "stream");
         point Kind.Proxy_mode "proxy_mode" [ "dc" ] ~flag:("mode", "fallback", "stream");
         point Kind.Stab_round "stab_round" [ "dc"; "gst" ];
         point Kind.Vec_advance "vec_advance" [ "dc"; "src"; "ts" ];
         point Kind.Switch_begin "switch_begin" [ "epoch" ] ~flag:("mode", "graceful", "forced");
         point Kind.Switch_done "switch_done" [ "dc"; "epoch" ] ]
      @ spans Kind.Span_begin "span_begin"
      @ spans Kind.Span_end "span_end")
  in
  Array.iteri
    (fun tag d ->
      if kind_tag d.kind + span_kind_id d.sk <> tag then
        invalid_arg "Probe: descriptor out of order")
    a;
  a

let kind_names = Array.init n_kinds (fun tag -> descs.(tag).name)

(* The one walk over a line: it folds the line into [s]'s hash, newline
   included, and writes it to [s.out] when one is given, so the digested
   bytes and every exported line cannot drift apart. *)
let walk s at d (v : view) =
  field s l_t (Time.to_us at);
  add_lit s d.head;
  if d.arity > 0 then add_int s v.f0;
  for i = 1 to d.arity - 1 do
    field s d.keys.(i - 1) (arg v i)
  done;
  (match d.choice with None -> () | Some (on, off) -> add_lit s (if v.flag then on else off));
  add_lit s l_close

(* ---- views ---------------------------------------------------------------- *)

(* [fill] writes an event's flag and fields into a view and returns its
   tag: the one write of every typed emitter. *)
let fill (v : view) kind flag a b c d e f =
  v.flag <- flag;
  v.f0 <- a;
  v.f1 <- b;
  v.f2 <- c;
  v.f3 <- d;
  v.f4 <- e;
  v.f5 <- f;
  kind_tag kind

let span_of_view (v : view) =
  { sk = v.span_kind; origin = v.f0; seq = v.f1; aux = v.f2; site = v.f3; peer = v.f4;
    epoch = v.f5 }

(* a view's tag, for walks that start from a view alone *)
let tag_of_view (v : view) = kind_tag v.kind + span_kind_id v.span_kind

(* ---- the packed kept trace ---------------------------------------------- *)

(* A kept event is appended to fixed-size [Bytes] chunks: the GC never
   scans or promotes their contents, where an array of boxed events would
   hold one block per event for the major GC to mark. An event is
   encoded as one tag byte, then the zigzag-LEB128 delta of its time from
   the previous event's, then each int field as a zigzag-LEB128 varint.
   The tag byte is the event's tag; the flag of [Link_drop],
   [Proxy_apply], [Proxy_mode] and [Switch_begin] rides in its
   [tag_flag] bit. A varint of a 63-bit int is at most 9 bytes, so an
   event — tag, time and at most six fields — is at most
   [max_event_bytes]: a chunk is sealed with [end_of_chunk] once the next
   event might not fit, and no event straddles two chunks. *)
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

(* decoding reads through a cursor *)
type cursor = { mutable cb : Bytes.t; mutable cp : int }

let rec get_uleb c acc shift =
  let byte = Bytes.get_uint8 c.cb c.cp in
  c.cp <- c.cp + 1;
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else get_uleb c acc (shift + 7)

let get c =
  let v = get_uleb c 0 0 in
  (v lsr 1) lxor -(v land 1)

(* the fields of the event whose tag byte was [byte], into [v] *)
let get_fields c byte (v : view) =
  let tag = byte land lnot tag_flag in
  if tag >= n_tags then invalid_arg (Printf.sprintf "Probe: corrupt trace tag %d" tag);
  let d = descs.(tag) in
  v.kind <- d.kind;
  v.span_kind <- d.sk;
  v.flag <- byte land tag_flag <> 0;
  for i = 0 to 5 do
    set_arg v i (if i < d.arity then get c else 0)
  done

(* ---- the probe ------------------------------------------------------------ *)

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
  counts : int array; (* indexed by [bucket] *)
  (* span pairing state: lives in the probe (not in the kept trace) so
     matched totals are available even on count-only (~keep:false) probes,
     which is what bench's flame table runs under *)
  open_spans : Flat_table.t; (* (span kind id, the six fields) -> begin µs *)
  span_us : int array; (* indexed by [span_kind_id] *)
  span_n : int array;
  mutable span_orphans : int;
  mutable stream : (out_channel * writer) option;
  mutable subscribers : (Time.t -> view -> unit) list; (* in subscription order *)
  slot : view; (* the event being recorded *)
}

let create ?(keep = true) () =
  fill_tables ();
  (* [pos = chunk_size] makes the first kept event allocate the first chunk *)
  { keep; chunks = [||]; n_chunks = 0; cur = Bytes.empty; pos = chunk_size; last_us = 0; len = 0;
    sc = scribe None; counts = Array.make n_kinds 0; open_spans = Flat_table.create ~fields:7;
    span_us = Array.make n_span_kinds 0; span_n = Array.make n_span_kinds 0; span_orphans = 0;
    stream = None; subscribers = []; slot = view () }

let count t = t.len

let stream_jsonl t oc =
  let w = writer () in
  t.sc.out <- Some w;
  t.stream <- Some (oc, w)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

(* The chunk table starts above [Max_young_wosize] entries, so it is born
   on the major heap and growing it never allocates on the minor heap. *)
let min_chunk_table = 512

let new_chunk t =
  if t.pos < chunk_size then Bytes.unsafe_set t.cur t.pos (Char.unsafe_chr end_of_chunk);
  if t.n_chunks = Array.length t.chunks then begin
    let a = Array.make (max min_chunk_table (2 * t.n_chunks)) Bytes.empty in
    Array.blit t.chunks 0 a 0 t.n_chunks;
    t.chunks <- a
  end;
  let b = Bytes.create chunk_size in
  t.chunks.(t.n_chunks) <- b;
  t.n_chunks <- t.n_chunks + 1;
  t.cur <- b;
  t.pos <- 0

let keep_event t at tag d (v : view) =
  if t.pos + max_event_bytes > chunk_size then new_chunk t;
  let b = t.cur in
  let us = Time.to_us at in
  Bytes.unsafe_set b t.pos (Char.unsafe_chr (if v.flag then tag lor tag_flag else tag));
  let p = ref (put b (t.pos + 1) (us - t.last_us)) in
  for i = 0 to d.arity - 1 do
    p := put b !p (arg v i)
  done;
  t.pos <- !p;
  t.last_us <- us

let pair_span t at tag d (v : view) =
  let sid = span_kind_id d.sk and spans = t.open_spans in
  let i = Flat_table.find spans sid v.f0 v.f1 v.f2 v.f3 v.f4 v.f5 in
  if tag < n_kinds then begin
    (* keep the first begin: duplicates (none are expected from the core
       instrumentation) must not reset an open interval *)
    if not (Flat_table.found spans i) then
      Flat_table.set spans i sid v.f0 v.f1 v.f2 v.f3 v.f4 v.f5 (Time.to_us at)
  end
  else if not (Flat_table.found spans i) then t.span_orphans <- t.span_orphans + 1
  else begin
    t.span_us.(sid) <- t.span_us.(sid) + (Time.to_us at - Flat_table.value spans i);
    t.span_n.(sid) <- t.span_n.(sid) + 1;
    Flat_table.remove spans i
  end

(* a direct loop: a [List.iter] over a partial application would allocate
   a closure per event *)
let rec notify at v = function
  | [] -> ()
  | f :: rest ->
    f at v;
    notify at v rest

(* All the per-event work, from the fields already in [t.slot]: digest
   (and stream), count, pair spans, keep, notify. *)
let record t at tag =
  let v = t.slot and d = descs.(tag) in
  v.kind <- d.kind;
  v.span_kind <- d.sk;
  (match t.stream with
  | None -> walk t.sc at d v
  | Some (oc, w) ->
    w.wn <- 0;
    walk t.sc at d v;
    output oc w.wb 0 w.wn);
  let b = bucket tag in
  t.counts.(b) <- t.counts.(b) + 1;
  if tag >= n_point_kinds then pair_span t at tag d v;
  if t.keep then keep_event t at tag d v;
  t.len <- t.len + 1;
  notify at v t.subscribers

let require_kept t fn =
  if not t.keep then invalid_arg ("Probe." ^ fn ^ ": probe created with ~keep:false")

(* decodes the packed trace into one view, calling [f at v] per event *)
let decode t fn f =
  require_kept t fn;
  let c = { cb = Bytes.empty; cp = 0 } and v = view () in
  let last_us = ref 0 in
  for i = 0 to t.n_chunks - 1 do
    c.cb <- t.chunks.(i);
    c.cp <- 0;
    let limit = if i = t.n_chunks - 1 then t.pos else chunk_size in
    while c.cp < limit && Bytes.get_uint8 c.cb c.cp <> end_of_chunk do
      let byte = Bytes.get_uint8 c.cb c.cp in
      c.cp <- c.cp + 1;
      last_us := !last_us + get c;
      get_fields c byte v;
      f (Time.of_us !last_us) v
    done
  done

let iter_views t f = decode t "iter_views" f

(* rebuild the historical (name, count) view: nonzero slots only, so
   kinds a run never emitted stay absent, name-sorted *)
let sorted_nonzero names arr =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if arr.(i) <> 0 then acc := (names i, arr.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let span_kind_of_id = Array.of_list span_kinds
let span_name_of_id i = span_kind_name span_kind_of_id.(i)
let counts_by_kind t = sorted_nonzero (fun i -> kind_names.(i)) t.counts
let span_totals_us t = sorted_nonzero span_name_of_id t.span_us
let span_counts t = sorted_nonzero span_name_of_id t.span_n
let span_orphans t = t.span_orphans
let open_span_count t = Flat_table.length t.open_spans

let digest t = Printf.sprintf "%016Lx" (Bytes.get_int64_le t.sc.st 0)

let write_jsonl t oc =
  let w = writer () in
  let s = scribe (Some w) in
  decode t "write_jsonl" (fun at v ->
      w.wn <- 0;
      walk s at descs.(tag_of_view v) v;
      output oc w.wb 0 w.wn)

(* ---- the global sink ---------------------------------------------------- *)

(* One process-wide sink, Logs-reporter style: instrumentation points all
   over the simulator and the systems built on it stay a single branch on
   the fast path, and nothing has to thread a probe handle through every
   constructor. The simulator is single-threaded; installs are scoped by
   the observability entry points (smoke runs, tests). *)
let current : t option ref = ref None

let active () = match !current with None -> false | Some _ -> true (* no polymorphic compare *)

let with_probe t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

(* ---- typed emitters --------------------------------------------------------- *)

(* Every emitter reads the process-wide sink exactly once, here, and
   passes its fields as unboxed ints: unused ones as 0. *)
let point kind ~at ~flag a b c d e f =
  match !current with None -> () | Some t -> record t at (fill t.slot kind flag a b c d e f)

let engine_step ~at ~seq = point Kind.Engine_step ~at ~flag:false seq 0 0 0 0 0
let link_send ~at ~size_bytes = point Kind.Link_send ~at ~flag:false size_bytes 0 0 0 0 0
let link_deliver ~at = point Kind.Link_deliver ~at ~flag:false 0 0 0 0 0 0
let link_drop ~at ~in_flight = point Kind.Link_drop ~at ~flag:in_flight 0 0 0 0 0 0
let fifo_resend ~at ~sender ~seq = point Kind.Fifo_resend ~at ~flag:false sender seq 0 0 0 0

let label_forward ~at ~dc ~gear ~ts ~oseq ~inst ~epoch =
  point Kind.Label_forward ~at ~flag:false dc gear ts oseq inst epoch

let serializer_hop ~at ~from_ser ~to_ser =
  point Kind.Serializer_hop ~at ~flag:false from_ser to_ser 0 0 0 0

let serializer_deliver ~at ~dc = point Kind.Serializer_deliver ~at ~flag:false dc 0 0 0 0 0
let delay_wait ~at ~serializer ~us = point Kind.Delay_wait ~at ~flag:false serializer us 0 0 0 0
let chain_ack ~at ~seq = point Kind.Chain_ack ~at ~flag:false seq 0 0 0 0 0

let ser_commit ~at ~ser ~origin ~oseq ~epoch =
  point Kind.Ser_commit ~at ~flag:false ser origin oseq epoch 0 0

let head_change ~at ~ser = point Kind.Head_change ~at ~flag:false ser 0 0 0 0 0
let sink_emit ~at ~dc ~ts = point Kind.Sink_emit ~at ~flag:false dc ts 0 0 0 0

let proxy_apply ~at ~dc ~src_dc ~gear ~ts ~fallback =
  point Kind.Proxy_apply ~at ~flag:fallback dc src_dc gear ts 0 0

let proxy_mode ~at ~dc ~mode =
  point Kind.Proxy_mode ~at ~flag:(match mode with Fallback -> true | Stream -> false) dc 0 0 0 0 0

let stab_round ~at ~dc ~gst = point Kind.Stab_round ~at ~flag:false dc gst 0 0 0 0
let vec_advance ~at ~dc ~src ~ts = point Kind.Vec_advance ~at ~flag:false dc src ts 0 0 0
let switch_begin ~at ~epoch ~graceful = point Kind.Switch_begin ~at ~flag:graceful epoch 0 0 0 0 0
let switch_done ~at ~dc ~epoch = point Kind.Switch_done ~at ~flag:false dc epoch 0 0 0 0

let span kind ~at ~aux ~site ~peer ~epoch sk ~origin ~seq =
  match !current with
  | None -> ()
  | Some t -> record t at (fill t.slot kind false origin seq aux site peer epoch + span_kind_id sk)

let span_begin ~at ~aux ~site ~peer ~epoch sk ~origin ~seq =
  span Kind.Span_begin ~at ~aux ~site ~peer ~epoch sk ~origin ~seq

let span_end ~at ~aux ~site ~peer ~epoch sk ~origin ~seq =
  span Kind.Span_end ~at ~aux ~site ~peer ~epoch sk ~origin ~seq
