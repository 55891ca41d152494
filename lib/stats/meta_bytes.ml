type t = {
  attached : Registry.counter;
  stabilization : Registry.counter;
  heartbeat : Registry.counter;
}

let create registry ~system =
  let counter part = Registry.counter registry (Printf.sprintf "meta.bytes.%s.%s" system part) in
  {
    attached = counter "attached";
    stabilization = counter "stabilization";
    heartbeat = counter "heartbeat";
  }

let record_op t ~bytes ~fanout =
  if bytes < 0 || fanout < 0 then invalid_arg "Meta_bytes.record_op: negative bytes or fanout";
  let total = bytes * fanout in
  if total > 0 then Registry.incr_by t.attached total

let record_stabilization t ~bytes =
  if bytes < 0 then invalid_arg "Meta_bytes.record_stabilization: negative bytes";
  if bytes > 0 then Registry.incr_by t.stabilization bytes

let record_heartbeat t ~bytes =
  if bytes < 0 then invalid_arg "Meta_bytes.record_heartbeat: negative bytes";
  if bytes > 0 then Registry.incr_by t.heartbeat bytes

let attached_bytes t = Registry.counter_value t.attached

let total_bytes t =
  attached_bytes t + Registry.counter_value t.stabilization + Registry.counter_value t.heartbeat
