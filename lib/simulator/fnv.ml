let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let digest s =
  let h = ref offset in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  Printf.sprintf "%016Lx" !h
