(* Slot [i] is the [slot] ints from [i * slot]: 1 when used (0 when
   free), the seven key fields, and the value. *)
type t = { mutable a : int array; mutable bits : int; mutable n : int }

let slot = 9

let create () = { a = Array.make (slot lsl 4) 0; bits = 4; n = 0 }

(* Fibonacci hashing: the top [bits] bits of a multiplicative mix *)
let home bits k0 k1 k2 k3 k4 k5 k6 =
  let mix h x = (h lxor x) * 0x1e3779b97f4a7c15 in
  mix (mix (mix (mix (mix (mix (mix 0 k0) k1) k2) k3) k4) k5) k6 lsr (Sys.int_size - bits)

let home_of_slot bits a o =
  home bits a.(o + 1) a.(o + 2) a.(o + 3) a.(o + 4) a.(o + 5) a.(o + 6) a.(o + 7)

let find t k0 k1 k2 k3 k4 k5 k6 =
  let a = t.a in
  let mask = (1 lsl t.bits) - 1 in
  let i = ref (home t.bits k0 k1 k2 k3 k4 k5 k6) in
  while
    let o = !i * slot in
    Array.unsafe_get a o <> 0
    && not
         (Array.unsafe_get a (o + 1) = k0
         && Array.unsafe_get a (o + 2) = k1
         && Array.unsafe_get a (o + 3) = k2
         && Array.unsafe_get a (o + 4) = k3
         && Array.unsafe_get a (o + 5) = k4
         && Array.unsafe_get a (o + 6) = k5
         && Array.unsafe_get a (o + 7) = k6)
  do
    i := (!i + 1) land mask
  done;
  !i

let found t i = t.a.(i * slot) <> 0
let value t i = t.a.((i * slot) + 8)
let length t = t.n

let grow t =
  let old = t.a in
  let bits = t.bits + 1 in
  let a = Array.make (slot lsl bits) 0 in
  let mask = (1 lsl bits) - 1 in
  for o = 0 to (Array.length old / slot) - 1 do
    let o = o * slot in
    if old.(o) <> 0 then begin
      let i = ref (home_of_slot bits old o) in
      while a.(!i * slot) <> 0 do
        i := (!i + 1) land mask
      done;
      Array.blit old o a (!i * slot) slot
    end
  done;
  t.a <- a;
  t.bits <- bits

let set t i k0 k1 k2 k3 k4 k5 k6 v =
  let a = t.a and o = i * slot in
  a.(o + 8) <- v;
  if a.(o) = 0 then begin
    a.(o) <- 1;
    a.(o + 1) <- k0;
    a.(o + 2) <- k1;
    a.(o + 3) <- k2;
    a.(o + 4) <- k3;
    a.(o + 5) <- k4;
    a.(o + 6) <- k5;
    a.(o + 7) <- k6;
    t.n <- t.n + 1;
    if 2 * t.n > 1 lsl t.bits then grow t
  end

(* each later entry of the probe run moves into the hole unless its home
   lies cyclically in (hole, j] *)
let remove t i =
  let a = t.a in
  let mask = (1 lsl t.bits) - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while a.(!j * slot) <> 0 do
    let h = home_of_slot t.bits a (!j * slot) in
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      Array.blit a (!j * slot) a (!hole * slot) slot;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  a.(!hole * slot) <- 0;
  t.n <- t.n - 1
