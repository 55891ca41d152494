type t = {
  attached : Registry.counter;
  stabilization : Registry.counter;
  heartbeat : Registry.counter;
  per_op : Histogram.t;
}

let create registry ~system =
  {
    attached = Registry.counter registry (Printf.sprintf "meta.bytes.%s.attached" system);
    stabilization = Registry.counter registry (Printf.sprintf "meta.bytes.%s.stabilization" system);
    heartbeat = Registry.counter registry (Printf.sprintf "meta.bytes.%s.heartbeat" system);
    (* COPS dependency lists can exceed the range under unpruned contexts;
       overflow observations still count toward the mean, which is all the
       shootout table reads. *)
    per_op = Registry.histogram registry (Printf.sprintf "meta.bytes.%s.per_op" system)
        ~lo:0. ~hi:2048. ~buckets:128;
  }

let record_op t ~bytes ~fanout =
  if bytes < 0 || fanout < 0 then invalid_arg "Meta_bytes.record_op: negative bytes or fanout";
  let total = bytes * fanout in
  if total > 0 then Registry.incr_by t.attached total;
  Histogram.add_int t.per_op total

let record_stabilization t ~bytes =
  if bytes < 0 then invalid_arg "Meta_bytes.record_stabilization: negative bytes";
  if bytes > 0 then Registry.incr_by t.stabilization bytes

let record_heartbeat t ~bytes =
  if bytes < 0 then invalid_arg "Meta_bytes.record_heartbeat: negative bytes";
  if bytes > 0 then Registry.incr_by t.heartbeat bytes

let attached_bytes t = Registry.counter_value t.attached
let stabilization_bytes t = Registry.counter_value t.stabilization
let heartbeat_bytes t = Registry.counter_value t.heartbeat
let total_bytes t = attached_bytes t + stabilization_bytes t + heartbeat_bytes t
let ops t = Histogram.count t.per_op

let attached_per_op t =
  let n = ops t in
  if n = 0 then 0. else Histogram.mean t.per_op

let per_op_hist t = t.per_op
