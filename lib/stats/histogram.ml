(* The running sum lives in an all-float record, stored flat, so adding
   to it boxes nothing. *)
type acc = { mutable sum : float }

type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable n : int;
  acc : acc;
  mutable under : int;
  mutable over : int;
}

let create ~lo ~hi ~buckets =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if buckets < 1 then invalid_arg "Histogram.create: buckets < 1";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int buckets;
    counts = Array.make buckets 0;
    n = 0;
    acc = { sum = 0. };
    under = 0;
    over = 0;
  }

let[@inline] add t x =
  t.n <- t.n + 1;
  t.acc.sum <- t.acc.sum +. x;
  if x < t.lo then t.under <- t.under + 1
  else if x >= t.hi then t.over <- t.over + 1
  else begin
    let idx = int_of_float ((x -. t.lo) /. t.width) in
    let idx = min idx (Array.length t.counts - 1) in
    t.counts.(idx) <- t.counts.(idx) + 1
  end

(* the float is made here: one passed across modules is boxed *)
let add_int t n = add t (float_of_int n)
let count t = t.n
let mean t = if t.n = 0 then 0. else t.acc.sum /. float_of_int t.n

let percentile t p =
  if t.n = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of [0,100]";
  let target = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
  let target = max target 1 in
  if t.under >= target then t.lo
  else begin
    let seen = ref t.under in
    let result = ref t.hi in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if !seen >= target then begin
             result := t.lo +. ((float_of_int i +. 0.5) *. t.width);
             raise Exit
           end)
         t.counts
     with Exit -> ());
    !result
  end

let merge a b =
  if a.lo <> b.lo || a.hi <> b.hi || Array.length a.counts <> Array.length b.counts then
    invalid_arg "Histogram.merge: geometry mismatch";
  let m = create ~lo:a.lo ~hi:a.hi ~buckets:(Array.length a.counts) in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.n <- a.n + b.n;
  m.acc.sum <- a.acc.sum +. b.acc.sum;
  m.under <- a.under + b.under;
  m.over <- a.over + b.over;
  m

let underflow t = t.under
let overflow t = t.over
