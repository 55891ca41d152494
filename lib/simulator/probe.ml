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
   [stream_jsonl]: it appends straight into a caller-owned buffer, with no
   Printf and no intermediate strings, so the hashed bytes and every
   exported line are the same bytes by construction. *)

(* the digits of [m <= 0], most significant first: recursing on [m / 10]
   keeps every division by a constant, and working on the non-positive
   side gives [min_int] a magnitude too *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

(* [n] in decimal, exactly as [%d] prints it *)
let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (if n < 0 then n else -n)

(* [key] carries its own punctuation, e.g. [,"seq":] *)
let field buf key v =
  Buffer.add_string buf key;
  add_int buf v

let render_span buf ph { sk; origin; seq; aux; site; peer; epoch } =
  Buffer.add_string buf ph;
  Buffer.add_string buf (span_kind_name sk);
  field buf {|","origin":|} origin; field buf {|,"seq":|} seq; field buf {|,"aux":|} aux;
  field buf {|,"site":|} site; field buf {|,"peer":|} peer; field buf {|,"epoch":|} epoch

let render buf at ev =
  let str = Buffer.add_string in
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
  Buffer.add_char buf '}'

(* the JSONL form: one rendered object and its newline *)
let render_line buf at ev =
  Buffer.clear buf;
  render buf at ev;
  Buffer.add_char buf '\n'

let to_json at ev =
  let buf = Buffer.create 128 in
  render buf at ev;
  Buffer.contents buf

(* FNV-1a, 64-bit: stable across runs, processes and architectures — the
   digest doubles as CI's determinism oracle, so no Hashtbl.hash/Marshal.
   The running state lives in an 8-byte [Bytes], and the loop's int64 ref
   is a local the native compiler keeps unboxed, so folding a line in
   allocates nothing. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold state buf =
  let h = ref (Bytes.get_int64_le state 0) in
  for i = 0 to Buffer.length buf - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth buf i)))) fnv_prime
  done;
  Bytes.set_int64_le state 0 !h

type t = {
  keep : bool;
  (* the kept trace, flat: [times.(i)], [evs.(i)] is the i-th event; both
     stay empty on count-only probes *)
  mutable times : Time.t array;
  mutable evs : event array;
  mutable len : int;
  hash : Bytes.t; (* FNV-1a state, see [fnv_fold] *)
  line : Buffer.t; (* the record path's reused render buffer *)
  counts : int array; (* indexed by [kind_id] *)
  (* span pairing state: lives in the probe (not in the kept trace) so
     matched totals are available even on count-only (~keep:false) probes,
     which is what bench's flame table runs under *)
  open_spans : (span, Time.t) Hashtbl.t;
  span_us : int array; (* indexed by [span_kind_id] *)
  span_n : int array;
  mutable span_orphans : int;
  mutable stream : out_channel option;
}

let create ?(keep = true) () =
  let cap = if keep then 1024 else 0 in
  let hash = Bytes.create 8 in
  Bytes.set_int64_le hash 0 fnv_offset;
  { keep; times = Array.make cap Time.zero; evs = Array.make cap Link_deliver; len = 0; hash;
    line = Buffer.create 256; counts = Array.make n_kinds 0; open_spans = Hashtbl.create 64;
    span_us = Array.make n_span_kinds 0; span_n = Array.make n_span_kinds 0; span_orphans = 0;
    stream = None }

let count t = t.len

let stream_jsonl t oc = t.stream <- Some oc

let doubled a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let record t at ev =
  render_line t.line at ev;
  fnv_fold t.hash t.line;
  (match t.stream with Some oc -> Buffer.output_buffer oc t.line | None -> ());
  let kid = kind_id ev in
  t.counts.(kid) <- t.counts.(kid) + 1;
  (match ev with
  | Span_begin s ->
    (* keep the first begin: duplicates (none are expected from the core
       instrumentation) must not reset an open interval *)
    if not (Hashtbl.mem t.open_spans s) then Hashtbl.replace t.open_spans s at
  | Span_end s -> (
    match Hashtbl.find_opt t.open_spans s with
    | Some t0 ->
      Hashtbl.remove t.open_spans s;
      let sid = span_kind_id s.sk in
      t.span_us.(sid) <- t.span_us.(sid) + (Time.to_us at - Time.to_us t0);
      t.span_n.(sid) <- t.span_n.(sid) + 1
    | None -> t.span_orphans <- t.span_orphans + 1)
  | _ -> ());
  if t.keep then begin
    if t.len = Array.length t.evs then begin
      t.times <- doubled t.times Time.zero;
      t.evs <- doubled t.evs Link_deliver
    end;
    t.times.(t.len) <- at;
    t.evs.(t.len) <- ev
  end;
  t.len <- t.len + 1

let require_kept t fn =
  if not t.keep then invalid_arg ("Probe." ^ fn ^ ": probe created with ~keep:false")

let iter t f =
  require_kept t "iter";
  for i = 0 to t.len - 1 do
    f t.times.(i) t.evs.(i)
  done

(* rebuild the historical (name, count) view: nonzero slots only, so
   kinds a run never emitted stay absent, name-sorted *)
let sorted_nonzero names arr =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if arr.(i) <> 0 then acc := (names i, arr.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let span_name_of_id i = span_kind_name (List.nth span_kinds i)
let counts_by_kind t = sorted_nonzero (fun i -> kind_names.(i)) t.counts
let span_totals_us t = sorted_nonzero span_name_of_id t.span_us
let span_counts t = sorted_nonzero span_name_of_id t.span_n
let span_orphans t = t.span_orphans
let open_span_count t = Hashtbl.length t.open_spans

let digest t = Printf.sprintf "%016Lx" (Bytes.get_int64_le t.hash 0)

let write_jsonl t oc =
  require_kept t "write_jsonl";
  let buf = Buffer.create 256 in
  iter t (fun at ev ->
      render_line buf at ev;
      Buffer.output_buffer oc buf)

(* ---- the global sink ---------------------------------------------------- *)

(* One process-wide sink, Logs-reporter style: instrumentation points all
   over the simulator and the systems built on it stay a single branch on
   the fast path, and nothing has to thread a probe handle through every
   constructor. The simulator is single-threaded; installs are scoped by
   the observability entry points (smoke runs, tests). *)
let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let active () = !current <> None

let emit ~at ev = match !current with None -> () | Some t -> record t at ev

let with_probe t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f
