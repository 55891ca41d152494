(* rule: protocol-invariant
   Every bulk shipment must pass ~size_bytes so Meta_bytes can attribute
   it, record Stats.Meta_bytes in its enclosing definition, and — in
   lib/core, where shipments cross reconfiguration epochs — thread an
   epoch. Separately, every Probe.Kind constant needs a consumer in
   Faults.Checker, Harness.Journey or Harness.Chrome. *)
(* --bad-- *)
(* @file lib/core/fixture.ml *)
let flush t links = Transport.ship links t.buf
(* --good-- *)
(* @file lib/core/fixture.ml *)
let flush t links ~epoch =
  Stats.Meta_bytes.record t.meta ~bytes:(bytes t.buf);
  Transport.ship links t.buf ~size_bytes:(bytes t.buf) ~epoch
