module Keyed = struct
  (* Heap positions hold only ints: keys in two parallel [int array]s and,
     beside them, the payload's slot. Payloads sit in a slot-indexed array
     for their whole stay in the queue, so a sift moves a hole over the int
     arrays and never writes a pointer: the only [caml_modify]s are the one
     payload write per push and the one dummy write per pop. Free slots go
     on a stack; [free.(0 .. cap - len - 1)] are the slots not in use. The
     comparison is fixed lexicographic (k1, k2) — no closure call per sift
     step. *)
  type 'a t = {
    dummy : 'a;
    mutable k1 : int array; (* heap position -> primary key *)
    mutable k2 : int array; (* heap position -> secondary key *)
    mutable slot : int array; (* heap position -> payload slot *)
    mutable data : 'a array; (* slot -> payload *)
    mutable free : int array; (* free-slot stack *)
    mutable len : int;
    mutable popped_k1 : int;
    mutable popped_k2 : int;
  }

  (* slots [lo, hi) pushed so the lowest is on top *)
  let fill_free free ~lo ~hi =
    for i = 0 to hi - lo - 1 do
      free.(i) <- hi - 1 - i
    done

  let create ?(capacity = 16) ~dummy () =
    let capacity = max capacity 1 in
    let free = Array.make capacity 0 in
    fill_free free ~lo:0 ~hi:capacity;
    { dummy;
      k1 = Array.make capacity 0;
      k2 = Array.make capacity 0;
      slot = Array.make capacity 0;
      data = Array.make capacity dummy;
      free;
      len = 0;
      popped_k1 = 0;
      popped_k2 = 0 }

  let size h = h.len
  let is_empty h = h.len = 0
  let capacity h = Array.length h.data

  let grow h =
    let cap = Array.length h.data in
    if h.len = cap then begin
      let ncap = cap * 2 in
      let extend a fill =
        let b = Array.make ncap fill in
        Array.blit a 0 b 0 cap;
        b
      in
      h.k1 <- extend h.k1 0;
      h.k2 <- extend h.k2 0;
      h.slot <- extend h.slot 0;
      h.data <- extend h.data h.dummy;
      (* the stack was empty (every slot in use): the new slots are free *)
      let free = Array.make ncap 0 in
      fill_free free ~lo:cap ~hi:ncap;
      h.free <- free
    end

  let push h ~k1 ~k2 x =
    grow h;
    let s = h.free.(Array.length h.data - h.len - 1) in
    h.data.(s) <- x;
    (* sift the hole at the new last position up to where (k1, k2) belongs *)
    let i = ref h.len in
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let pk1 = h.k1.(p) in
      if k1 < pk1 || (k1 = pk1 && k2 < h.k2.(p)) then begin
        h.k1.(!i) <- pk1;
        h.k2.(!i) <- h.k2.(p);
        h.slot.(!i) <- h.slot.(p);
        i := p
      end
      else continue := false
    done;
    h.k1.(!i) <- k1;
    h.k2.(!i) <- k2;
    h.slot.(!i) <- s;
    h.len <- h.len + 1

  let peek h = if h.len = 0 then None else Some h.data.(h.slot.(0))
  let min_k1 h = if h.len = 0 then invalid_arg "Heap.Keyed.min_k1: empty heap" else h.k1.(0)

  let min_payload h =
    if h.len = 0 then invalid_arg "Heap.Keyed.min_payload: empty heap" else h.data.(h.slot.(0))

  let pop_exn h =
    if h.len = 0 then invalid_arg "Heap.Keyed.pop_exn: empty heap";
    let s = h.slot.(0) in
    let top = h.data.(s) in
    h.data.(s) <- h.dummy;
    h.popped_k1 <- h.k1.(0);
    h.popped_k2 <- h.k2.(0);
    let n = h.len - 1 in
    h.len <- n;
    h.free.(Array.length h.data - n - 1) <- s;
    if n > 0 then begin
      (* sift the hole at the root down to where the last entry belongs;
         ties prefer the left child, as a swap-based sift would *)
      let lk1 = h.k1.(n) and lk2 = h.k2.(n) and ls = h.slot.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && (h.k1.(r) < h.k1.(l) || (h.k1.(r) = h.k1.(l) && h.k2.(r) < h.k2.(l)))
            then r
            else l
          in
          let ck1 = h.k1.(c) in
          if ck1 < lk1 || (ck1 = lk1 && h.k2.(c) < lk2) then begin
            h.k1.(!i) <- ck1;
            h.k2.(!i) <- h.k2.(c);
            h.slot.(!i) <- h.slot.(c);
            i := c
          end
          else continue := false
        end
      done;
      h.k1.(!i) <- lk1;
      h.k2.(!i) <- lk2;
      h.slot.(!i) <- ls
    end;
    top

  let pop h = if h.len = 0 then None else Some (pop_exn h)

  let popped_k1 h = h.popped_k1
  let popped_k2 h = h.popped_k2

  let clear h =
    for i = 0 to h.len - 1 do
      h.data.(h.slot.(i)) <- h.dummy
    done;
    fill_free h.free ~lo:0 ~hi:(Array.length h.data);
    h.len <- 0
end
