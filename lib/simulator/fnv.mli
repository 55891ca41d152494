(** FNV-1a, 64-bit: the one hash behind every digest the determinism
    gates compare (probe trace, series, blame, scale graph). Stable across
    runs, processes and architectures, unlike [Hashtbl.hash] or [Marshal].
    Each byte [c] steps the state [h] to [(h lxor c) * prime]. *)

val offset : int64
val prime : int64

val digest : string -> string
(** Every byte of the string folded in from [offset], as 16 hex digits. *)
