(* The splitmix64 state lives in an 8-byte [Bytes] rather than a mutable
   [int64] field: a field store would box every new state, while a bytes
   store writes the raw 64 bits. With [next_int64] inlined, its result
   stays an unboxed local too, so [int], [chance] and [bool] allocate
   nothing and [float] at most its boxed result. The state never leaves
   the process, so the native byte order is fine. *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* splitmix64: fast, well-distributed, and trivially seedable. *)
let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let[@inline] float t bound =
  let mask = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 random bits mapped to [0,1). *)
  Int64.to_float mask /. 9007199254740992. *. bound

let chance t p = float t 1.0 < p

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
