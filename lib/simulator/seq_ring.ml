type 'a t = {
  mutable slots : 'a array; (* [||] until the first set; then a power of two *)
  mutable held : bool array; (* the slot's seq is held *)
  mutable lo : int; (* while any seq is held: the lowest *)
  mutable hi : int; (* while any seq is held: at least the highest *)
  mutable n : int;
  mutable filler : 'a option; (* the first value set: fills free slots *)
}

let create () = { slots = [||]; held = [||]; lo = 0; hi = -1; n = 0; filler = None }

(* every held seq lies in [lo, hi], which fits the buffer *)
let mem r seq = r.n > 0 && r.lo <= seq && seq <= r.hi && r.held.(seq land (Array.length r.held - 1))

let get r seq = if mem r seq then r.slots.(seq land (Array.length r.slots - 1)) else raise Not_found

(* Doubles the buffer until it spans [lo, hi], moving every held seq. *)
let fit r ~lo ~hi x =
  let cap = Array.length r.held in
  if hi - lo >= cap then begin
    let filler =
      match r.filler with
      | Some f -> f
      | None ->
        r.filler <- Some x;
        x
    in
    let cap' = ref (Int.max 16 (2 * cap)) in
    while hi - lo >= !cap' do
      cap' := 2 * !cap'
    done;
    let slots = Array.make !cap' filler and held = Array.make !cap' false in
    if r.n > 0 then
      for s = r.lo to r.hi do
        let i = s land (cap - 1) in
        if r.held.(i) then begin
          let j = s land (!cap' - 1) in
          held.(j) <- true;
          slots.(j) <- r.slots.(i)
        end
      done;
    r.slots <- slots;
    r.held <- held
  end

let set r seq x =
  let lo = if r.n = 0 then seq else Int.min r.lo seq in
  let hi = if r.n = 0 then seq else Int.max r.hi seq in
  fit r ~lo ~hi x;
  r.lo <- lo;
  r.hi <- hi;
  let i = seq land (Array.length r.held - 1) in
  if not r.held.(i) then begin
    r.held.(i) <- true;
    r.n <- r.n + 1
  end;
  r.slots.(i) <- x

let remove r seq =
  if mem r seq then begin
    let mask = Array.length r.held - 1 in
    r.held.(seq land mask) <- false;
    (match r.filler with Some f -> r.slots.(seq land mask) <- f | None -> ());
    r.n <- r.n - 1;
    if r.n > 0 && seq = r.lo then
      while not r.held.(r.lo land mask) do
        r.lo <- r.lo + 1
      done
  end

let drop_below r seq =
  while r.n > 0 && r.lo < seq do
    remove r r.lo
  done

let iter f r =
  if r.n > 0 then
    for s = r.lo to r.hi do
      if mem r s then f s r.slots.(s land (Array.length r.slots - 1))
    done
