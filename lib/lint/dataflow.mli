(** Def-use dataflow over [Ast] items: statement windows, order-safety
    classification for unordered hash iteration (R1), and
    nondeterminism-taint tracking from ambient sources through
    let-bindings and function returns to probe/registry/digest/scheduler
    sinks (R6). "Safe" always requires positive evidence. *)

val window_fwd : Token.t array -> int -> Token.t list

val statement_window : Token.t array -> int -> Token.t list
(** The statement-level token window around a site, bounded by
    [;]/[in]/[let]/[->]/… at the site's minimal bracket depth. *)

val hash_tables : Token.t array -> string list
(** Modules the unit binds to [Hashtbl.Make (…)] or [Hashtbl.MakeSeeded (…)]
    ([module Label_tbl = Hashtbl.Make (…)]). Their operations are hash-table
    operations for {!unordered_op} and {!classify_unordered}. *)

val unordered_op : tables:string list -> string -> bool
(** Is this identifier an iteration in table order — of [Hashtbl] or of one
    of the functor instances [tables]? *)

val slice_exists : Token.t array -> from:int -> upto:int -> (Token.t -> bool) -> bool

type r1_class =
  | R1_safe of string  (** why the order provably cannot escape *)
  | R1_unsafe

val classify_unordered : Token.t array -> tables:string list -> items:Ast.item list -> int -> r1_class
(** Order-safety of the unordered-iteration site at token index [i]:
    sorted in the same statement, a commutative fold reduction, a binding
    that is only sorted/used to remove table entries, or an array fill
    that is sorted before any read — anything else is unsafe. *)

type taint_finding = {
  tf_line : int;  (** the sink site *)
  tf_source : string;
  tf_src_line : int;
  tf_sink : string;
  tf_via : string list;  (** binding chain from source to sink, in order *)
}

val check_taint : Token.t array -> taint_finding list
(** R6 over one compilation unit: ambient taint propagates through local
    let-bindings and (module-wide) through function returns; an
    R1-unsafe fold taints the name it is bound to; [sort] kills taint.
    A finding is produced only where taint reaches a sink. *)
