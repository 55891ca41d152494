(* A fixed reference computation, timed on both sides of every slice of
   measured work, so that host times can be put on one scale.

   On a shared machine other tenants slow this process down, by up to
   twice, in states that last from a fraction of a second to minutes. A
   slice timed while the machine is slow reads slow; so does the reference
   timed next to it. Dividing the one by the other removes most of that,
   and multiplying by [nominal_s] brings the result back to seconds: the
   time the slice would take on a machine on which the reference takes
   [nominal_s]. The reference is an integer loop that allocates nothing,
   so neither the program nor its GC settings can change its cost. *)

let iterations = 1_500_000

(* the reference's time on a quiet 2.0 GHz Xeon (README.md) *)
let nominal_s = 0.0025

let reference_s () =
  let t0 = Hostspan.now_ns () in
  let s = ref 0 in
  for i = 1 to iterations do
    s := !s + (i * i mod 7)
  done;
  ignore (Sys.opaque_identity !s : int);
  Hostspan.seconds_since t0

(* the clock just before the reference ran, its time, and the clock just
   after *)
type checkpoint = { before_ns : int; ref_s : float; after_ns : int }

let checkpoint () =
  let before_ns = Hostspan.now_ns () in
  let ref_s = reference_s () in
  { before_ns; ref_s; after_ns = Hostspan.now_ns () }

(* the work between consecutive checkpoints, oldest first: host seconds of
   each slice, and the mean reference time on its two sides *)
let slices checkpoints =
  let a = Array.of_list checkpoints in
  let n = max 0 (Array.length a - 1) in
  ( Array.init n (fun i -> float_of_int (a.(i + 1).before_ns - a.(i).after_ns) *. 1e-9),
    Array.init n (fun i -> (a.(i).ref_s +. a.(i + 1).ref_s) /. 2.) )

(* [host_s] seconds measured next to a reference that took [ref_s], on the
   nominal scale *)
let scaled ~ref_s host_s = host_s *. nominal_s /. ref_s
