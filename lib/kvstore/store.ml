type ('meta, 'k) t = { tbl : ('k, Value.t * 'meta) Hashtbl.t; mutable applied : int }

let create () = { tbl = Hashtbl.create 1024; applied = 0 }

let put t ~key v m =
  Hashtbl.replace t.tbl key (v, m);
  t.applied <- t.applied + 1

let put_if_newer t ~cmp ~key v m =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    put t ~key v m;
    true
  | Some (_, cur) ->
    if cmp m cur > 0 then begin
      put t ~key v m;
      true
    end
    else false

let get t ~key = Hashtbl.find_opt t.tbl key
let find t ~key = Hashtbl.find t.tbl key

let value_size t ~key =
  match Hashtbl.find t.tbl key with
  | v, _ -> v.Value.size_bytes
  | exception Not_found -> 0

let mem t ~key = Hashtbl.mem t.tbl key
let size t = Hashtbl.length t.tbl

let puts_applied t = t.applied
