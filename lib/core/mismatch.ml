type t = {
  n_dcs : int;
  weight : int -> int -> float;
  bulk : int -> int -> Sim.Time.t;
}

let uniform ~n_dcs ~bulk = { n_dcs; weight = (fun i j -> if i = j then 0. else 1.); bulk }

let of_replica_map rm ~bulk =
  let n = Kvstore.Replica_map.n_dcs rm in
  let shared = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        shared.(i).(j) <- float_of_int (Kvstore.Replica_map.shared_keys rm i j)
    done
  done;
  { n_dcs = n; weight = (fun i j -> shared.(i).(j)); bulk }

let fold_pairs t f init =
  let acc = ref init in
  for i = 0 to t.n_dcs - 1 do
    for j = 0 to t.n_dcs - 1 do
      if i <> j then begin
        let c = t.weight i j in
        if c > 0. then acc := f !acc i j c
      end
    done
  done;
  !acc
