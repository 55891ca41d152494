type kind = Probe.span_kind =
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

let begin_ ~at ~aux ~site ~peer ~epoch sk ~origin ~seq =
  Probe.emit ~at (Probe.Span_begin { Probe.sk; origin; seq; aux; site; peer; epoch })

let end_ ~at ~aux ~site ~peer ~epoch sk ~origin ~seq =
  Probe.emit ~at (Probe.Span_end { Probe.sk; origin; seq; aux; site; peer; epoch })
