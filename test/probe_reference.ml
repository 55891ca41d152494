(* The boxed probe event that Sim.Probe's flyweight view replaced, kept as
   the reference the typed emitters are checked against: one constructor
   per kind with its fields named, the original Printf renderer of its
   JSONL line, [record], which plants an event through that kind's typed
   emitter, and [of_view], which builds one back from a decoded view. A
   stream recorded through [record] must render, digest and decode to what
   [to_json] and the constructors say, so an emitter that passes its
   fields in the wrong order fails the format tests. *)

open Sim

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
  | Proxy_mode of { dc : int; mode : Probe.mode }
  | Stab_round of { dc : int; gst : int }
  | Vec_advance of { dc : int; src : int; ts : int }
  | Switch_begin of { epoch : int; graceful : bool }
  | Switch_done of { dc : int; epoch : int }
  | Span_begin of Probe.span
  | Span_end of Probe.span

(* the probe's original Printf renderer: one line, without its newline *)
let to_json at ev =
  let t = Time.to_us at in
  let span_json ph { Probe.sk; origin; seq; aux; site; peer; epoch } =
    Printf.sprintf
      {|{"t":%d,"ev":"span_%s","kind":"%s","origin":%d,"seq":%d,"aux":%d,"site":%d,"peer":%d,"epoch":%d}|}
      t ph (Probe.span_kind_name sk) origin seq aux site peer epoch
  in
  match ev with
  | Engine_step { seq } -> Printf.sprintf {|{"t":%d,"ev":"engine_step","seq":%d}|} t seq
  | Link_send { size_bytes } -> Printf.sprintf {|{"t":%d,"ev":"link_send","bytes":%d}|} t size_bytes
  | Link_deliver -> Printf.sprintf {|{"t":%d,"ev":"link_deliver"}|} t
  | Link_drop { in_flight } ->
    Printf.sprintf {|{"t":%d,"ev":"link_drop","why":"%s"}|} t (if in_flight then "cut" else "down")
  | Fifo_resend { sender; seq } ->
    Printf.sprintf {|{"t":%d,"ev":"fifo_resend","sender":%d,"seq":%d}|} t sender seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    Printf.sprintf
      {|{"t":%d,"ev":"label_forward","dc":%d,"gear":%d,"ts":%d,"oseq":%d,"inst":%d,"epoch":%d}|} t
      dc gear ts oseq inst epoch
  | Serializer_hop { from_ser; to_ser } ->
    Printf.sprintf {|{"t":%d,"ev":"serializer_hop","from":%d,"to":%d}|} t from_ser to_ser
  | Serializer_deliver { dc } -> Printf.sprintf {|{"t":%d,"ev":"serializer_deliver","dc":%d}|} t dc
  | Delay_wait { serializer; us } ->
    Printf.sprintf {|{"t":%d,"ev":"delay_wait","serializer":%d,"us":%d}|} t serializer us
  | Chain_ack { seq } -> Printf.sprintf {|{"t":%d,"ev":"chain_ack","seq":%d}|} t seq
  | Ser_commit { ser; origin; oseq; epoch } ->
    Printf.sprintf {|{"t":%d,"ev":"ser_commit","ser":%d,"origin":%d,"oseq":%d,"epoch":%d}|} t ser
      origin oseq epoch
  | Head_change { ser } -> Printf.sprintf {|{"t":%d,"ev":"head_change","ser":%d}|} t ser
  | Sink_emit { dc; ts } -> Printf.sprintf {|{"t":%d,"ev":"sink_emit","dc":%d,"ts":%d}|} t dc ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback } ->
    Printf.sprintf {|{"t":%d,"ev":"proxy_apply","dc":%d,"src":%d,"gear":%d,"ts":%d,"via":"%s"}|} t
      dc src_dc gear ts
      (if fallback then "fallback" else "stream")
  | Proxy_mode { dc; mode } ->
    Printf.sprintf {|{"t":%d,"ev":"proxy_mode","dc":%d,"mode":"%s"}|} t dc
      (match mode with Probe.Stream -> "stream" | Probe.Fallback -> "fallback")
  | Stab_round { dc; gst } -> Printf.sprintf {|{"t":%d,"ev":"stab_round","dc":%d,"gst":%d}|} t dc gst
  | Vec_advance { dc; src; ts } ->
    Printf.sprintf {|{"t":%d,"ev":"vec_advance","dc":%d,"src":%d,"ts":%d}|} t dc src ts
  | Switch_begin { epoch; graceful } ->
    Printf.sprintf {|{"t":%d,"ev":"switch_begin","epoch":%d,"mode":"%s"}|} t epoch
      (if graceful then "graceful" else "forced")
  | Switch_done { dc; epoch } ->
    Printf.sprintf {|{"t":%d,"ev":"switch_done","dc":%d,"epoch":%d}|} t dc epoch
  | Span_begin s -> span_json "begin" s
  | Span_end s -> span_json "end" s

(* plants [ev] into the installed probe, if any, through its kind's typed
   emitter *)
let record ~at = function
  | Engine_step { seq } -> Probe.engine_step ~at ~seq
  | Link_send { size_bytes } -> Probe.link_send ~at ~size_bytes
  | Link_deliver -> Probe.link_deliver ~at
  | Link_drop { in_flight } -> Probe.link_drop ~at ~in_flight
  | Fifo_resend { sender; seq } -> Probe.fifo_resend ~at ~sender ~seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    Probe.label_forward ~at ~dc ~gear ~ts ~oseq ~inst ~epoch
  | Serializer_hop { from_ser; to_ser } -> Probe.serializer_hop ~at ~from_ser ~to_ser
  | Serializer_deliver { dc } -> Probe.serializer_deliver ~at ~dc
  | Delay_wait { serializer; us } -> Probe.delay_wait ~at ~serializer ~us
  | Chain_ack { seq } -> Probe.chain_ack ~at ~seq
  | Ser_commit { ser; origin; oseq; epoch } -> Probe.ser_commit ~at ~ser ~origin ~oseq ~epoch
  | Head_change { ser } -> Probe.head_change ~at ~ser
  | Sink_emit { dc; ts } -> Probe.sink_emit ~at ~dc ~ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback } ->
    Probe.proxy_apply ~at ~dc ~src_dc ~gear ~ts ~fallback
  | Proxy_mode { dc; mode } -> Probe.proxy_mode ~at ~dc ~mode
  | Stab_round { dc; gst } -> Probe.stab_round ~at ~dc ~gst
  | Vec_advance { dc; src; ts } -> Probe.vec_advance ~at ~dc ~src ~ts
  | Switch_begin { epoch; graceful } -> Probe.switch_begin ~at ~epoch ~graceful
  | Switch_done { dc; epoch } -> Probe.switch_done ~at ~dc ~epoch
  | Span_begin { sk; origin; seq; aux; site; peer; epoch } ->
    Span.begin_ ~at ~aux ~site ~peer ~epoch sk ~origin ~seq
  | Span_end { sk; origin; seq; aux; site; peer; epoch } ->
    Span.end_ ~at ~aux ~site ~peer ~epoch sk ~origin ~seq

(* the event a decoded view holds *)
let of_view (v : Probe.view) =
  match v.kind with
  | Probe.Kind.Engine_step -> Engine_step { seq = v.f0 }
  | Probe.Kind.Link_send -> Link_send { size_bytes = v.f0 }
  | Probe.Kind.Link_deliver -> Link_deliver
  | Probe.Kind.Link_drop -> Link_drop { in_flight = v.flag }
  | Probe.Kind.Fifo_resend -> Fifo_resend { sender = v.f0; seq = v.f1 }
  | Probe.Kind.Label_forward ->
    Label_forward { dc = v.f0; gear = v.f1; ts = v.f2; oseq = v.f3; inst = v.f4; epoch = v.f5 }
  | Probe.Kind.Serializer_hop -> Serializer_hop { from_ser = v.f0; to_ser = v.f1 }
  | Probe.Kind.Serializer_deliver -> Serializer_deliver { dc = v.f0 }
  | Probe.Kind.Delay_wait -> Delay_wait { serializer = v.f0; us = v.f1 }
  | Probe.Kind.Chain_ack -> Chain_ack { seq = v.f0 }
  | Probe.Kind.Ser_commit -> Ser_commit { ser = v.f0; origin = v.f1; oseq = v.f2; epoch = v.f3 }
  | Probe.Kind.Head_change -> Head_change { ser = v.f0 }
  | Probe.Kind.Sink_emit -> Sink_emit { dc = v.f0; ts = v.f1 }
  | Probe.Kind.Proxy_apply ->
    Proxy_apply { dc = v.f0; src_dc = v.f1; gear = v.f2; ts = v.f3; fallback = v.flag }
  | Probe.Kind.Proxy_mode ->
    Proxy_mode { dc = v.f0; mode = (if v.flag then Probe.Fallback else Probe.Stream) }
  | Probe.Kind.Stab_round -> Stab_round { dc = v.f0; gst = v.f1 }
  | Probe.Kind.Vec_advance -> Vec_advance { dc = v.f0; src = v.f1; ts = v.f2 }
  | Probe.Kind.Switch_begin -> Switch_begin { epoch = v.f0; graceful = v.flag }
  | Probe.Kind.Switch_done -> Switch_done { dc = v.f0; epoch = v.f1 }
  | Probe.Kind.Span_begin -> Span_begin (Probe.span_of_view v)
  | Probe.Kind.Span_end -> Span_end (Probe.span_of_view v)
