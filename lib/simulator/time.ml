type t = int

let zero = 0
let infinity = max_int
let of_us n = n
let of_ms n = n * 1_000
let of_sec s = int_of_float (Float.round (s *. 1_000_000.))
let to_us t = t
let to_ms_float t = float_of_int t /. 1_000.
let to_sec_float t = float_of_int t /. 1_000_000.
let add = ( + )
let sub = ( - )
(* typed comparisons, not [Stdlib.max]/[min]: those are polymorphic and
   call [caml_compare] on every event's [schedule] *)
let max (a : t) (b : t) = if a >= b then a else b
let min (a : t) (b : t) = if a <= b then a else b
let compare = Int.compare
let equal = Int.equal

let pp ppf t =
  if t < 1_000 then Format.fprintf ppf "%dus" t
  else if t < 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms_float t)
  else Format.fprintf ppf "%.3fs" (to_sec_float t)

let to_string t = Format.asprintf "%a" pp t
