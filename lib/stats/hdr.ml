type t = {
  sub_bits : int;
  sub : int; (* 1 lsl sub_bits: sub-buckets per octave *)
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  mutable neg : int;
}

(* values [0, sub) get exact unit buckets; a value v >= sub with
   floor(log2 v) = e lands in octave (e - sub_bits), sub-bucket
   (v >> (e - sub_bits)) - sub. Total slots: sub * (64 - sub_bits) covers
   every non-negative OCaml int (e <= 62). *)
let create ?(sub_bits = 7) () =
  if sub_bits < 0 || sub_bits > 16 then invalid_arg "Hdr.create: sub_bits outside [0, 16]";
  let sub = 1 lsl sub_bits in
  {
    sub_bits;
    sub;
    counts = Array.make (sub * (64 - sub_bits)) 0;
    n = 0;
    sum = 0;
    vmin = max_int;
    vmax = 0;
    neg = 0;
  }

let msb v =
  (* position of the highest set bit; v > 0 *)
  let rec go v e = if v <= 1 then e else go (v lsr 1) (e + 1) in
  go v 0

let index t v = if v < t.sub then v else
    let e = msb v in
    t.sub + (((e - t.sub_bits) * t.sub) + ((v lsr (e - t.sub_bits)) - t.sub))

let add t v =
  if v < 0 then t.neg <- t.neg + 1
  else begin
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v;
    let i = index t v in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.n
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n
let max_value t = if t.n = 0 then 0 else t.vmax
let min_value t = if t.n = 0 then 0 else t.vmin
let negatives t = t.neg

(* bucket midpoint: exact for the unit buckets, low-edge + half-width
   above them *)
let representative t idx =
  if idx < t.sub then float_of_int idx
  else begin
    let o = idx - t.sub in
    let e = t.sub_bits + (o / t.sub) in
    let off = o mod t.sub in
    let lo = (1 lsl e) + (off lsl (e - t.sub_bits)) in
    let width = 1 lsl (e - t.sub_bits) in
    float_of_int lo +. (float_of_int (width - 1) /. 2.)
  end

let percentile t p =
  if t.n = 0 then invalid_arg "Hdr.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Hdr.percentile: p out of [0,100]";
  let target = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
  if target >= t.n then float_of_int t.vmax
  else begin
    let seen = ref 0 in
    let result = ref (float_of_int t.vmax) in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if c > 0 && !seen >= target then begin
             result := representative t i;
             raise Exit
           end)
         t.counts
     with Exit -> ());
    (* the representative can overshoot the true extremes in a sparse
       bucket; the exact min/max bound it *)
    Float.min (Float.max !result (float_of_int t.vmin)) (float_of_int t.vmax)
  end

let merge a b =
  if a.sub_bits <> b.sub_bits then invalid_arg "Hdr.merge: geometry mismatch";
  let m = create ~sub_bits:a.sub_bits () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.n <- a.n + b.n;
  m.sum <- a.sum + b.sum;
  m.vmin <- min a.vmin b.vmin;
  m.vmax <- max a.vmax b.vmax;
  m.neg <- a.neg + b.neg;
  m

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0;
  t.neg <- 0
