type 'a t = {
  mutable buf : 'a array; (* [||] until the first push; then a power of two *)
  mutable head : int;
  mutable len : int;
  mutable filler : 'a option; (* the first element pushed: fills free slots *)
}

let create () = { buf = [||]; head = 0; len = 0; filler = None }
let length r = r.len

let grow r x =
  let cap = Array.length r.buf in
  match r.filler with
  | None ->
    r.buf <- Array.make 16 x;
    r.filler <- Some x
  | Some f ->
    let bigger = Array.make (2 * cap) f in
    let first = cap - r.head in
    Array.blit r.buf r.head bigger 0 first;
    Array.blit r.buf 0 bigger first r.head;
    r.buf <- bigger;
    r.head <- 0

let push r x =
  if r.len = Array.length r.buf then grow r x;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
  r.len <- r.len + 1

let peek_exn r =
  if r.len = 0 then invalid_arg "Ring.peek_exn: empty ring";
  r.buf.(r.head)

let pop_exn r =
  if r.len = 0 then invalid_arg "Ring.pop_exn: empty ring";
  let h = r.head in
  let x = r.buf.(h) in
  (match r.filler with Some f -> r.buf.(h) <- f | None -> ());
  r.head <- (h + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  x

let iter f r =
  let mask = Array.length r.buf - 1 in
  for i = 0 to r.len - 1 do
    f r.buf.((r.head + i) land mask)
  done
