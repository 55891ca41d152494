(** Structural recovery over the token stream: top-level items, local
    let-binding chains, opens/aliases, [.mli] exports and variant
    constructors. Exact for the subset of OCaml this repo is written in;
    conservative (never narrower than the truth) elsewhere. *)

type binding = {
  b_name : string;  (** "" when the pattern binds no single name *)
  b_line : int;
  b_rhs_start : int;  (** token index of the first RHS token *)
  b_rhs_stop : int;  (** one past the last RHS token (its [in]) *)
}

type stmt =
  | S_def of binding  (** a local [let x = … in] *)
  | S_expr of int * int  (** expression chunk [start, stop) *)

type item_kind = K_let | K_module | K_open | K_type | K_other

type item = {
  it_kind : item_kind;
  it_names : (string * int) list;  (** names bound at the top level (let … and …) *)
  it_line : int;
  it_start : int;  (** token range [it_start, it_stop) including the keyword *)
  it_stop : int;
}

val items : Token.t array -> item list
(** Top-level structure items of a compilation unit, in order. *)

val item_containing : item list -> int -> item option
(** The item whose token range contains index [i]. *)

val statements : Token.t array -> from:int -> upto:int -> stmt list
(** Linearize a token range into local-binding definitions and the
    expression chunks between them, in textual order. *)

val item_body : Token.t array -> item -> int * int
(** The RHS range of a top-level [let] item (after its first depth-0 [=]). *)

val opens : Token.t array -> string list
(** Module paths the file opens ([open P], [let open P in], [P.(…)]),
    all treated file-wide (conservative), sorted and deduplicated. *)

val module_aliases : Token.t array -> (string * string) list
(** [module A = Dotted.Path] aliases: alias name -> aliased path. *)

val mli_vals : Token.t array -> (string * string * int) list
(** [val] declarations of an interface as (submodule path or "", name,
    line), in order. The vals of a [module type … = sig … end] are
    requirements on the modules that implement it, not exports, and are
    left out. *)

val module_type_vals : Token.t array -> name:string -> string list
(** The vals required by the top-level [module type <name> = sig … end]
    of an interface. *)

val variant_constructors : Token.t array -> type_name:string -> (string * int) list
(** Constructors of [type <type_name> = C1 | C2 of …], with lines. *)
