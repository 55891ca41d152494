(* Lightweight structural layer over the token stream: top-level items,
   local let-binding chains, call-site argument shapes, [.mli] exports and
   the opens/module-aliases the cross-file passes resolve against. Still
   no ppxlib/compiler-libs: top-level structure is recovered with a
   [let]-vs-[let … in] classification over bracket depths, which is exact
   for the subset of OCaml this repo is written in. *)

type binding = {
  b_name : string;  (* "" when the pattern binds no single name *)
  b_line : int;
  b_rhs_start : int;  (* token index of the first RHS token *)
  b_rhs_stop : int;  (* one past the last RHS token *)
}

type stmt =
  | S_def of binding  (* a local [let x = … in] *)
  | S_expr of int * int  (* expression chunk [start, stop) *)

type item_kind = K_let | K_module | K_open | K_type | K_other

type item = {
  it_kind : item_kind;
  it_names : (string * int) list;  (* names bound at the top level (let … and …) *)
  it_line : int;
  it_start : int;  (* token range [it_start, it_stop) including the keyword *)
  it_stop : int;
}

(* "val" appears only in interfaces, where it ends the preceding item —
   without it a [type] item in an .mli would swallow the whole signature *)
let item_starter = [ "let"; "module"; "open"; "type"; "exception"; "include"; "external"; "val" ]

(* Is the [let] (or [and]) at index [i] a local binding — i.e. does an
   [in] at the same bracket depth close it before the next structure
   keyword at that depth? [let open … in] is always local. *)
let let_is_local (toks : Token.t array) i =
  let n = Array.length toks in
  if i + 1 < n && toks.(i + 1).kind = Token.Ident && toks.(i + 1).text = "open" then true
  else begin
    let d = toks.(i).depth in
    let rec go j nested =
      if j >= n then false
      else
        let t = toks.(j) in
        if t.depth < d then false
        else if t.depth = d && t.kind = Token.Ident then
          if t.text = "in" then if nested = 0 then true else go (j + 1) (nested - 1)
          else if t.text = "let" then go (j + 1) (nested + 1)
          else if List.mem t.text item_starter then
            (* [let open M in]/[let module M = ...] mid-expression: the
               keyword after [let] is not a new top-level item *)
            if j > 0 && toks.(j - 1).kind = Token.Ident && toks.(j - 1).text = "let" then
              go (j + 1) nested
            else false
          else go (j + 1) nested
        else go (j + 1) nested
    in
    go (i + 1) 0
  end

(* The name a [let]/[and] at [i] binds: the next lone identifier, or ""
   for patterns ([let (a, b) =], [let () =]) and operators. *)
let binding_name (toks : Token.t array) i =
  let n = Array.length toks in
  let j = ref (i + 1) in
  if !j < n && toks.(!j).kind = Token.Ident && toks.(!j).text = "rec" then incr j;
  if !j < n && toks.(!j).kind = Token.Ident && not (List.mem toks.(!j).text item_starter) then
    (toks.(!j).text, toks.(!j).line)
  else ("", if !j < n then toks.(!j).line else (if n = 0 then 0 else toks.(n - 1).line))

(* Token index of the [=] that starts the RHS of the binding at [i]
   (same depth as the [let], skipping default-argument [=]s which sit
   deeper), or None for malformed input. *)
let rhs_eq (toks : Token.t array) i =
  let n = Array.length toks in
  let d = toks.(i).depth in
  let rec go j =
    if j >= n then None
    else
      let t = toks.(j) in
      if t.depth < d then None
      else if t.depth = d && t.kind = Token.Punct && t.text = "=" then Some j
      else if
        t.depth = d && t.kind = Token.Ident
        && List.mem t.text ("in" :: item_starter)
      then None
      else go (j + 1)
  in
  go (i + 1)

(* One past the last RHS token of a local binding whose [=] sits at [eq]:
   the matching [in] at the binding's depth, counting nested local lets. *)
let local_rhs_stop (toks : Token.t array) ~upto ~depth eq =
  let rec go j nested =
    if j >= upto then upto
    else
      let t = toks.(j) in
      if t.depth < depth then j
      else if t.depth = depth && t.kind = Token.Ident then
        if t.text = "in" then if nested = 0 then j else go (j + 1) (nested - 1)
        else if t.text = "let" then go (j + 1) (nested + 1)
        else go (j + 1) nested
      else go (j + 1) nested
  in
  go (eq + 1) 0

(* ---- top-level items ----------------------------------------------------- *)

let items (toks : Token.t array) =
  let n = Array.length toks in
  let starts = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.depth = 0 && t.kind = Token.Ident && List.mem t.text item_starter then begin
        let local =
          match t.text with
          | "let" -> let_is_local toks i
          | "open" ->
            (* [let open …] was consumed by the [let]; a bare [open] is an item *)
            i > 0 && toks.(i - 1).kind = Token.Ident && toks.(i - 1).text = "let"
          | _ -> false
        in
        if not local then starts := i :: !starts
      end)
    toks;
  let starts = List.rev !starts in
  let rec build = function
    | [] -> []
    | s :: rest ->
      let stop = match rest with s' :: _ -> s' | [] -> n in
      let t = toks.(s) in
      let kind =
        match t.text with
        | "let" -> K_let
        | "module" -> K_module
        | "open" -> K_open
        | "type" -> K_type
        | _ -> K_other
      in
      let names =
        if kind <> K_let then (match binding_name toks s with ("", _) -> [] | nm -> [ nm ])
        else begin
          (* [let … and …] chains: every top-level [and] in range adds a name *)
          let names = ref [ binding_name toks s ] in
          for j = s + 1 to stop - 1 do
            let tj = toks.(j) in
            if tj.depth = 0 && tj.kind = Token.Ident && tj.text = "and" && not (let_is_local toks j)
            then names := binding_name toks j :: !names
          done;
          List.rev !names
        end
      in
      { it_kind = kind; it_names = names; it_line = t.line; it_start = s; it_stop = stop }
      :: build rest
  in
  build starts

(* The item range containing token index [i], if any. *)
let item_containing its i = List.find_opt (fun it -> it.it_start <= i && i < it.it_stop) its

(* ---- statements inside an item body -------------------------------------- *)

(* Splits [from, upto) into local-binding definitions and the expression
   chunks between them, in textual order. Nested local lets inside a RHS
   stay part of that RHS (taint looks inside slices anyway). *)
let statements (toks : Token.t array) ~from ~upto =
  let out = ref [] in
  let flush_expr a b = if b > a then out := S_expr (a, b) :: !out in
  let i = ref from in
  let chunk = ref from in
  while !i < upto do
    let t = toks.(!i) in
    if
      t.kind = Token.Ident
      && (t.text = "let" || t.text = "and")
      && (!i + 1 >= upto || not (toks.(!i + 1).kind = Token.Ident && toks.(!i + 1).text = "open"))
      && let_is_local toks !i
    then begin
      flush_expr !chunk !i;
      let name, line = binding_name toks !i in
      match rhs_eq toks !i with
      | None ->
        chunk := !i + 1;
        incr i
      | Some eq ->
        let stop = local_rhs_stop toks ~upto ~depth:t.depth eq in
        out := S_def { b_name = name; b_line = line; b_rhs_start = eq + 1; b_rhs_stop = stop } :: !out;
        (* continue after the [in] *)
        i := min upto (stop + 1);
        chunk := !i
    end
    else incr i
  done;
  flush_expr !chunk upto;
  List.rev !out

(* The body of a top-level [let] item: everything after its first [=] at
   depth 0 ([let f x = body]). Falls back to the whole range. *)
let item_body (toks : Token.t array) it =
  if it.it_kind <> K_let then (it.it_start, it.it_stop)
  else
    match rhs_eq toks it.it_start with
    | Some eq when eq + 1 < it.it_stop -> (eq + 1, it.it_stop)
    | _ -> (it.it_start, it.it_stop)

(* ---- opens and module aliases --------------------------------------------- *)

let is_upper_ident (t : Token.t) =
  t.kind = Token.Ident && String.length t.text > 0 && t.text.[0] >= 'A' && t.text.[0] <= 'Z'

(* Every module path the file opens: top-level [open P], [let open P in],
   and local [P.(…)] opens. Conservative: all are treated file-wide. *)
let opens (toks : Token.t array) =
  let n = Array.length toks in
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident && t.text = "open" && i + 1 < n && is_upper_ident toks.(i + 1) then
        out := toks.(i + 1).text :: !out
      else if
        is_upper_ident t
        && i + 2 < n
        && toks.(i + 1).kind = Token.Punct
        && toks.(i + 1).text = "."
        && toks.(i + 2).kind = Token.Punct
        && toks.(i + 2).text = "("
      then out := t.text :: !out)
    toks;
  List.sort_uniq String.compare !out

(* [module A = Dotted.Path] aliases (RHS a bare module path, not a
   functor application or struct): alias name -> full path. *)
let module_aliases (toks : Token.t array) =
  let n = Array.length toks in
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if
        t.kind = Token.Ident && t.text = "module"
        && i + 3 < n
        && is_upper_ident toks.(i + 1)
        && toks.(i + 2).kind = Token.Punct
        && toks.(i + 2).text = "="
        && is_upper_ident toks.(i + 3)
        && not (i + 4 < n && toks.(i + 4).kind = Token.Punct && toks.(i + 4).text = "(")
      then out := (toks.(i + 1).text, toks.(i + 3).text) :: !out)
    toks;
  List.rev !out

(* ---- .mli exports ---------------------------------------------------------- *)

(* Every [val] declaration of an interface, with the path of the
   signatures it sits in: [module X : sig … end] frames give a submodule
   path, and the frame of a [module type X = sig … end] is flagged, since
   its vals are requirements on other modules, not exports. *)
let sig_vals (toks : Token.t array) =
  let n = Array.length toks in
  let out = ref [] in
  (* stack of (module name, is a module type, depth inside its sig, sig
     token index) — the frame is pushed at the [module] token, while
     [X : sig] itself still sits one level shallower, so popping must wait
     until past the [sig] *)
  let stack = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match !stack with
    | (_, _, d, sig_idx) :: rest when !i > sig_idx && t.depth < d -> stack := rest
    | _ -> ());
    if t.kind = Token.Ident && t.text = "module" && !i + 1 < n then begin
      (* [module X : sig] or [module type X = sig] — the sig token opens
         one depth level *)
      let is_type = toks.(!i + 1).kind = Token.Ident && toks.(!i + 1).text = "type" in
      let at = if is_type then !i + 2 else !i + 1 in
      if at < n && is_upper_ident toks.(at) then begin
        let name = toks.(at).text in
        let rec find_sig j =
          if j >= n || j > at + 5 then None
          else if toks.(j).kind = Token.Ident && toks.(j).text = "sig" then Some j
          else find_sig (j + 1)
        in
        match find_sig (at + 1) with
        | Some j -> stack := (name, is_type, toks.(j).depth + 1, j) :: !stack
        | None -> ()
      end
    end;
    if
      t.kind = Token.Ident && t.text = "val"
      && !i + 1 < n
      && toks.(!i + 1).kind = Token.Ident
    then out := (List.rev !stack, toks.(!i + 1).text, toks.(!i + 1).line) :: !out;
    incr i
  done;
  List.rev !out

(* [val] declarations of an interface, with the submodule path for vals
   declared inside [module X : sig … end] ("" at the top level). Vals of a
   [module type] are not exports and are left out. *)
let mli_vals toks =
  List.filter_map
    (fun (frames, name, line) ->
      if List.exists (fun (_, is_type, _, _) -> is_type) frames then None
      else Some (String.concat "." (List.map (fun (nm, _, _, _) -> nm) frames), name, line))
    (sig_vals toks)

let module_type_vals toks ~name =
  List.filter_map
    (fun (frames, v, _) ->
      match frames with
      | [ (nm, true, _, _) ] when nm = name -> Some v
      | _ -> None)
    (sig_vals toks)

(* ---- variant constructors -------------------------------------------------- *)

(* The constructors of [type <type_name> = C1 | C2 of …] in an interface
   or implementation (capitalized idents directly after [=] or [|] at the
   declaration's depth, until the next declaration or the end of the
   signature it sits in). A qualified [M.t] names the type [t] declared in
   the signature of the top-level [module M]. *)
let variant_constructors (toks : Token.t array) ~type_name =
  let its = items toks in
  let named kind name it = it.it_kind = kind && List.exists (fun (nm, _) -> nm = name) it.it_names in
  let decl =
    match String.split_on_char '.' type_name with
    | [ ty ] -> Option.map (fun it -> it.it_start) (List.find_opt (named K_type ty) its)
    | [ m; ty ] ->
      Option.bind (List.find_opt (named K_module m) its) (fun it ->
          let rec find j =
            if j + 1 >= it.it_stop then None
            else if toks.(j).kind = Token.Ident && toks.(j).text = "type" && toks.(j + 1).text = ty
            then Some j
            else find (j + 1)
          in
          find it.it_start)
    | _ -> None
  in
  match decl with
  | None -> []
  | Some start ->
    let out = ref [] in
    let d = toks.(start).depth in
    let inside (t : Token.t) =
      t.depth > d || (t.depth = d && not (t.kind = Token.Ident && List.mem t.text item_starter))
    in
    let j = ref (start + 1) in
    while !j < Array.length toks && inside toks.(!j) do
      let t = toks.(!j) and p = toks.(!j - 1) in
      if
        is_upper_ident t && t.depth = d
        && p.kind = Token.Punct
        && (p.text = "|" || p.text = "=")
        && not (String.contains t.text '.')
      then out := (t.text, t.line) :: !out;
      incr j
    done;
    List.rev !out
