(* rule: unordered-iteration
   Hashtbl iteration order is arbitrary and differs run-to-run, so any
   value that escapes an iter/fold in table order reaches the trace
   digest and breaks replay. Sort in the same expression (or in the
   binding's later uses), or make the reduction commutative. A module
   bound to [Hashtbl.Make (...)] in the same file is a hash table too:
   its fold/iter walk the buckets in hash order. *)
(* --bad-- *)
(* @file lib/fixture.ml *)
let keys tbl =
  let out = ref [] in
  Hashtbl.iter (fun k _ -> out := k :: !out) tbl;
  !out
(* @file lib/fixture_tbl.ml *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

let keys tbl = Int_tbl.fold (fun k _ acc -> k :: acc) tbl []
(* --good-- *)
(* @file lib/fixture.ml *)
let keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
(* @file lib/fixture_tbl.ml *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

let keys tbl = List.sort Int.compare (Int_tbl.fold (fun k _ acc -> k :: acc) tbl [])

let drop_below tbl floor =
  let stale = Int_tbl.fold (fun k _ acc -> if k < floor then k :: acc else acc) tbl [] in
  List.iter (Int_tbl.remove tbl) stale
