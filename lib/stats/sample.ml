(* The running total lives in an all-float record, stored flat, so
   adding to it boxes nothing. *)
type sum = { mutable total : float }

type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : float array option;
  sum : sum;
}

let create () = { data = [||]; len = 0; sorted = None; sum = { total = 0. } }

let[@inline] add t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ndata = Array.make ncap 0. in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum.total <- t.sum.total +. x;
  t.sorted <- None

(* [Sim.Time.to_ms_float]'s arithmetic, made here: a float passed or
   returned across modules is boxed *)
let add_us t us = add t (float_of_int us /. 1_000.)

let add_time t d = add_us t (Sim.Time.to_us d)
let count t = t.len
let is_empty t = t.len = 0
let mean t = if t.len = 0 then 0. else t.sum.total /. float_of_int t.len

(* In-place heap sort in [Float.compare] order. Monomorphic, so no
   element is boxed: [Array.sort Float.compare] boxes both floats of every
   comparison it makes. *)
let sift_down (a : float array) root n =
  let i = ref root in
  let go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= n then go := false
    else begin
      let c = if l + 1 < n && Float.compare a.(l) a.(l + 1) < 0 then l + 1 else l in
      if Float.compare a.(!i) a.(c) < 0 then begin
        let x = a.(!i) in
        a.(!i) <- a.(c);
        a.(c) <- x;
        i := c
      end
      else go := false
    end
  done

let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = Array.sub t.data 0 t.len in
    sort_floats s;
    t.sorted <- Some s;
    s

let percentile t p =
  if t.len = 0 then invalid_arg "Sample.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Sample.percentile: p out of [0,100]";
  let s = sorted t in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end
