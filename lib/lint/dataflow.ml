(* Def-use dataflow over [Ast] items: statement windows, order-safety
   classification for unordered hash iteration (what used to need a
   waiver per commutative fold), and nondeterminism taint from ambient
   sources through let-bindings and function returns to probe/registry/
   digest/scheduler sinks. Everything here is a sound-for-this-repo
   approximation: "safe" requires positive evidence; anything the
   classifier cannot read stays a finding. *)

(* ---- statement windows ----------------------------------------------------

   "The same expression" for R1/R3: the token window around a site bounded
   by statement-level punctuation. Scanning out from the site we track the
   lowest bracket depth seen so far ([l]); a boundary token only stops the
   scan when it sits at that level, so delimiters inside sibling argument
   groups — the [->] of an inline [fun], the [;] inside its body — are
   crossed freely while the [in]/[;]/[let] that really ends the statement
   is not. *)

let fwd_stop = [ ";"; ";;"; "in"; "let"; "and"; "then"; "else"; "do"; "done"; "->"; "|" ]
let bwd_stop = fwd_stop @ [ "="; "<-"; ":=" ]

let boundary stops (t : Token.t) =
  (match t.kind with Token.Ident | Token.Punct -> true | _ -> false)
  && List.mem t.text stops

let window_fwd (toks : Token.t array) i =
  let n = Array.length toks in
  let out = ref [] in
  let l = ref toks.(i).depth in
  let k = ref (i + 1) in
  let stop = ref false in
  while (not !stop) && !k < n do
    let t = toks.(!k) in
    if t.depth < !l then l := t.depth;
    if boundary fwd_stop t && t.depth <= !l then stop := true
    else begin
      out := t :: !out;
      incr k
    end
  done;
  List.rev !out

let window_bwd (toks : Token.t array) i =
  let out = ref [] in
  let l = ref toks.(i).depth in
  let k = ref (i - 1) in
  let stop = ref false in
  while (not !stop) && !k >= 0 do
    let t = toks.(!k) in
    if t.depth < !l then l := t.depth;
    if boundary bwd_stop t && t.depth <= !l then stop := true
    else begin
      out := t :: !out;
      decr k
    end
  done;
  !out

let statement_window toks i = window_bwd toks i @ (toks.(i) :: window_fwd toks i)

(* ---- shared predicates ---------------------------------------------------- *)

(* Modules this compilation unit binds to a functor-built table
   ([module Label_tbl = Hashtbl.Make (…)]): their [fold]/[iter] walk the
   buckets in hash order exactly like [Hashtbl]'s own. *)
let hash_tables (toks : Token.t array) =
  let n = Array.length toks in
  let out = ref [] in
  for i = 0 to n - 4 do
    let t = toks.(i) in
    if
      t.kind = Token.Ident && t.text = "module"
      && toks.(i + 1).kind = Token.Ident
      && toks.(i + 2).text = "="
      && List.mem toks.(i + 3).text [ "Hashtbl.Make"; "Hashtbl.MakeSeeded" ]
    then out := toks.(i + 1).text :: !out
  done;
  List.rev !out

(* [Hashtbl.op], or [M.op] for a module [M] in [tables] *)
let table_op ~tables ops text =
  (Token.starts_with ~prefix:"Hashtbl." text
  || match String.rindex_opt text '.' with
     | Some d -> List.mem (String.sub text 0 d) tables
     | None -> false)
  && List.mem (Token.last_component text) ops

let unordered_op ~tables text =
  table_op ~tables [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ] text

let sort_witness (t : Token.t) =
  t.kind = Token.Ident
  && List.mem (Token.last_component t.text) [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

let remove_witness ~tables (t : Token.t) =
  t.kind = Token.Ident && table_op ~tables [ "remove"; "reset"; "clear" ] t.text

(* does [from, upto) reference [name] as the head of a path? [stale],
   [stale.field] — but not [t.stale]. *)
let mentions (toks : Token.t array) ~from ~upto name =
  let found = ref false in
  for j = from to min upto (Array.length toks) - 1 do
    let t = toks.(j) in
    if t.kind = Token.Ident then begin
      let head =
        match String.index_opt t.text '.' with
        | None -> t.text
        | Some d -> String.sub t.text 0 d
      in
      if head = name then found := true
    end
  done;
  !found

let slice_exists (toks : Token.t array) ~from ~upto p =
  let found = ref false in
  for j = from to min upto (Array.length toks) - 1 do
    if p toks.(j) then found := true
  done;
  !found

(* ---- fold/iter body extraction -------------------------------------------- *)

(* The inline [(fun p1 … pn -> body)] argument of the application at [i]:
   (last param name, body start, one past body end). None when the
   iteration function is not a literal fun (a named helper — unreadable,
   so unsafe). *)
let fun_arg (toks : Token.t array) i =
  let n = Array.length toks in
  if
    i + 2 < n
    && toks.(i + 1).kind = Token.Punct
    && toks.(i + 1).text = "("
    && toks.(i + 2).kind = Token.Ident
    && toks.(i + 2).text = "fun"
  then begin
    let d = toks.(i + 1).depth in
    (* params run to the first [->] at the fun's depth *)
    let rec find_arrow j last_ident =
      if j >= n || toks.(j).depth <= d then None
      else if toks.(j).kind = Token.Punct && toks.(j).text = "->" && toks.(j).depth = d + 1 then
        Some (last_ident, j)
      else
        find_arrow (j + 1)
          (if toks.(j).kind = Token.Ident then Some toks.(j).text else last_ident)
    in
    match find_arrow (i + 3) None with
    | Some (Some acc, arrow) ->
      (* body ends at the [)] matching the opener *)
      let stop = ref (arrow + 1) in
      while
        !stop < n
        && not (toks.(!stop).kind = Token.Punct && toks.(!stop).text = ")" && toks.(!stop).depth = d)
      do
        incr stop
      done;
      Some (acc, arrow + 1, !stop)
    | _ -> None
  end
  else None

let commutative_ops = [ "+"; "+."; "*"; "*."; "land"; "lor"; "lxor" ]

let add_like (t : Token.t) =
  t.kind = Token.Ident && List.mem (Token.last_component t.text) [ "add"; "min"; "max" ]

(* A fold body is a commutative reduction when every occurrence of the
   accumulator either combines commutatively ([acc + x], [Time.add acc d],
   [min acc x]) or passes through unchanged ([-> acc], [else acc]), and
   the body builds no sequence ([::], [@], [^]). *)
let commutative_fold_body (toks : Token.t array) i =
  match fun_arg toks i with
  | None -> false
  | Some (acc, _, _) when acc = "_" ->
    (* an ignored last parameter means this is an iter, not a fold — there
       is no accumulator whose combination we could prove commutative *)
    false
  | Some (acc, b_start, b_stop) ->
    let builds_seq =
      slice_exists toks ~from:b_start ~upto:b_stop (fun t ->
          t.kind = Token.Punct && List.mem t.text [ "::"; "@"; "^" ])
    in
    if builds_seq then false
    else begin
      let ok = ref true in
      for j = b_start to b_stop - 1 do
        let t = toks.(j) in
        if t.kind = Token.Ident && t.text = acc then begin
          let prev = if j > b_start then Some toks.(j - 1) else None in
          let next = if j + 1 < b_stop then Some toks.(j + 1) else None in
          let ptxt = match prev with Some p -> p.text | None -> "" in
          let ntxt = match next with Some x -> x.text | None -> "" in
          let combined =
            List.mem ptxt commutative_ops || List.mem ntxt commutative_ops
            || (match prev with Some p -> add_like p | None -> false)
            || (* second argument of an add-like application: [add x acc] *)
            (j >= b_start + 2 && toks.(j - 1).kind = Token.Ident && add_like toks.(j - 2))
          in
          let identity =
            List.mem ptxt [ "->"; "then"; "else"; "(" ]
            && List.mem ntxt [ ")"; "then"; "else"; "in"; "|"; ";"; "" ]
          in
          if not (combined || identity) then ok := false
        end
      done;
      !ok
    end

(* An iter body that only fills array cells ([arr.(e) <- v]) is safe when
   a later sort of that array (in the same item) restores a canonical
   order before anything can read it. Returns the fill targets, or None
   when the body performs any other write or unknown call. *)
let array_fill_targets (toks : Token.t array) i =
  match fun_arg toks i with
  | None -> None
  | Some (_, b_start, b_stop) ->
    let targets = ref [] in
    let ok = ref true in
    for j = b_start to b_stop - 1 do
      let t = toks.(j) in
      if t.kind = Token.Punct && t.text = "<-" then begin
        (* expect … Ident "." "(" … ")" "<-" … *)
        if j > b_start && toks.(j - 1).kind = Token.Punct && toks.(j - 1).text = ")" then begin
          let d = toks.(j - 1).depth in
          let k = ref (j - 2) in
          while
            !k >= b_start
            && not (toks.(!k).kind = Token.Punct && toks.(!k).text = "(" && toks.(!k).depth = d)
          do
            decr k
          done;
          if
            !k >= b_start + 2
            && toks.(!k - 1).kind = Token.Punct
            && toks.(!k - 1).text = "."
            && toks.(!k - 2).kind = Token.Ident
          then targets := toks.(!k - 2).text :: !targets
          else ok := false
        end
        else ok := false
      end
    done;
    if !ok && !targets <> [] then Some (List.sort_uniq String.compare !targets) else None

(* ---- R1 order-safety classification ---------------------------------------- *)

type r1_class =
  | R1_safe of string  (* why the order provably cannot escape *)
  | R1_unsafe

(* The binding whose RHS contains token index [i], among the linearized
   statements of the enclosing item body. Returns (binding, statements
   after it). *)
let binding_of stmts i =
  let rec go = function
    | [] -> None
    | Ast.S_def b :: rest when b.Ast.b_rhs_start <= i && i < b.Ast.b_rhs_stop -> Some (b, rest)
    | _ :: rest -> go rest
  in
  go stmts

let stmt_range = function
  | Ast.S_def b -> (b.Ast.b_rhs_start, b.Ast.b_rhs_stop)
  | Ast.S_expr (a, b) -> (a, b)

(* Classify the unordered-iteration site at token [i]. [items] is the
   file's parsed structure (pass [Ast.items toks]). *)
let classify_unordered (toks : Token.t array) ~tables ~items i =
  if List.exists sort_witness (statement_window toks i) then
    R1_safe "sorted in the same expression"
  else if Token.last_component toks.(i).Token.text = "fold" && commutative_fold_body toks i then
    R1_safe "commutative reduction"
  else
    match Ast.item_containing items i with
    | None -> R1_unsafe
    | Some it -> (
      let from, upto = Ast.item_body toks it in
      let stmts = Ast.statements toks ~from ~upto in
      let fill_ok () =
        match array_fill_targets toks i with
        | None -> false
        | Some targets ->
          (* a later sort in the same item whose statement names the target *)
          List.for_all
            (fun tgt ->
              let found = ref false in
              for j = i + 1 to upto - 1 do
                if (not !found) && sort_witness toks.(j) then
                  if List.exists (fun (t : Token.t) -> t.kind = Token.Ident && t.text = tgt)
                       (statement_window toks j)
                  then found := true
              done;
              !found)
            targets
      in
      match binding_of stmts i with
      | Some (b, rest) when b.Ast.b_name <> "" ->
        (* every later statement that touches the binding must either
           sort it or only remove table entries with it *)
        let uses =
          List.filter
            (fun s ->
              let a, z = stmt_range s in
              mentions toks ~from:a ~upto:z b.Ast.b_name)
            rest
        in
        let all_ok =
          uses <> []
          && List.for_all
               (fun s ->
                 let a, z = stmt_range s in
                 slice_exists toks ~from:a ~upto:z sort_witness
                 || slice_exists toks ~from:a ~upto:z (remove_witness ~tables))
               uses
        in
        if all_ok then
          R1_safe "result is sorted or only drives table removals before any read"
        else if fill_ok () then R1_safe "fills an array that is sorted before any read"
        else R1_unsafe
      | _ -> if fill_ok () then R1_safe "fills an array that is sorted before any read" else R1_unsafe)

(* ---- R6 nondeterminism taint ----------------------------------------------- *)

(* Ambient sources: values that differ run-to-run even under the simulated
   clock. Unordered folds also taint the names they are bound to, but only
   when [classify_unordered] could not prove them order-safe. *)
let ambient_source (t : Token.t) =
  if t.kind <> Token.Ident then None
  else if List.mem t.text [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ] then
    Some ("wall clock (" ^ t.text ^ ")")
  else if
    Token.starts_with ~prefix:"Random." t.text
    && not (Token.starts_with ~prefix:"Random.State." t.text)
  then Some ("ambient PRNG (" ^ t.text ^ ")")
  else if t.text = "Hashtbl.hash" || Token.starts_with ~prefix:"Hashtbl.hash_param" t.text then
    Some ("unstable hash (" ^ t.text ^ ")")
  else None

let has_component comp text =
  List.mem comp (String.split_on_char '.' text)

let lowercase_contains ~needle hay =
  let hay = String.lowercase_ascii hay in
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Sinks: places where a nondeterministic value corrupts replay — the
   probe trace and its digest, registry/series telemetry, and simulator
   scheduling decisions. *)
let sink_of (t : Token.t) =
  if t.kind <> Token.Ident then None
  else
    let last = Token.last_component t.text in
    if has_component "Probe" t.text && last <> "active" then Some "the probe trace"
    else if has_component "Span" t.text && List.mem last [ "begin_"; "end_" ] then
      Some "span attribution"
    else if
      has_component "Registry" t.text && List.mem last [ "incr"; "incr_by"; "register_pull" ]
    then Some "registry telemetry"
    else if
      has_component "Series" t.text && List.mem last [ "incr"; "sample"; "observe"; "annotate" ]
    then Some "series telemetry"
    else if
      has_component "Engine" t.text
      && List.mem last [ "schedule"; "schedule_at"; "periodic"; "run" ]
    then Some "simulator scheduling"
    else if lowercase_contains ~needle:"digest" t.text || lowercase_contains ~needle:"fnv" t.text
    then Some "the trace digest"
    else None

type taint_finding = {
  tf_line : int;  (* the sink site *)
  tf_source : string;
  tf_src_line : int;
  tf_sink : string;
  tf_via : string list;  (* binding chain, source-first *)
}

type taint = { t_source : string; t_src_line : int; t_via : string list }

(* Is [from, upto) tainted? Checks ambient sources directly and references
   to tainted names (local env + module-level tainted functions). *)
let slice_taint (toks : Token.t array) ~from ~upto env =
  let best = ref None in
  for j = from to min upto (Array.length toks) - 1 do
    if !best = None then begin
      let t = toks.(j) in
      (match ambient_source t with
      | Some src -> best := Some { t_source = src; t_src_line = t.line; t_via = [] }
      | None -> ());
      if !best = None && t.kind = Token.Ident then begin
        let head =
          match String.index_opt t.text '.' with
          | None -> t.text
          | Some d -> String.sub t.text 0 d
        in
        match List.assoc_opt head env with
        | Some taint -> best := Some taint
        | None -> ()
      end
    end
  done;
  !best

let check_taint (toks : Token.t array) =
  let items = Ast.items toks in
  let tables = hash_tables toks in
  let findings = ref [] in
  (* names of top-level functions whose result carries taint *)
  let module_env = ref [] in
  let sink_check env ~from ~upto =
    (* a sink call in a slice that also holds a tainted value *)
    let sink = ref None in
    for j = from to min upto (Array.length toks) - 1 do
      if !sink = None then
        match sink_of toks.(j) with
        | Some s -> sink := Some (s, toks.(j).line)
        | None -> ()
    done;
    match !sink with
    | None -> ()
    | Some (sink_name, sink_line) -> (
      match slice_taint toks ~from ~upto env with
      | None -> ()
      | Some taint ->
        findings :=
          {
            tf_line = sink_line;
            tf_source = taint.t_source;
            tf_src_line = taint.t_src_line;
            tf_sink = sink_name;
            tf_via = List.rev taint.t_via;
          }
          :: !findings)
  in
  List.iter
    (fun it ->
      if it.Ast.it_kind = Ast.K_let then begin
        let from, upto = Ast.item_body toks it in
        let stmts = Ast.statements toks ~from ~upto in
        let env = ref !module_env in
        let last_taint = ref None in
        List.iter
          (fun s ->
            match s with
            | Ast.S_def b ->
              let a, z = (b.Ast.b_rhs_start, b.Ast.b_rhs_stop) in
              sink_check !env ~from:a ~upto:z;
              let killed = slice_exists toks ~from:a ~upto:z sort_witness in
              let taint =
                if killed then None
                else
                  match slice_taint toks ~from:a ~upto:z !env with
                  | Some t -> Some t
                  | None ->
                    (* an unordered fold the classifier cannot prove safe
                       taints the name it is bound to *)
                    let fold = ref None in
                    for j = a to min z (Array.length toks) - 1 do
                      if
                        !fold = None
                        && toks.(j).kind = Token.Ident
                        && unordered_op ~tables toks.(j).text
                        && classify_unordered toks ~tables ~items j = R1_unsafe
                      then
                        fold :=
                          Some
                            {
                              t_source = "unordered " ^ toks.(j).text;
                              t_src_line = toks.(j).line;
                              t_via = [];
                            }
                    done;
                    !fold
              in
              (match taint with
              | Some t when b.Ast.b_name <> "" ->
                env := (b.Ast.b_name, { t with t_via = b.Ast.b_name :: t.t_via }) :: !env
              | _ -> ());
              last_taint := None
            | Ast.S_expr (a, z) ->
              sink_check !env ~from:a ~upto:z;
              last_taint :=
                if slice_exists toks ~from:a ~upto:z sort_witness then None
                else
                  (* only ambient taint crosses item boundaries: a returned
                     unordered fold is R1's finding, not a new one here *)
                  slice_taint toks ~from:a ~upto:z !env)
          stmts;
        (* a function whose final expression is tainted taints its name
           module-wide: callers hand the result to sinks without ever
           naming the source (the PR 8 Reliable_fifo miss) *)
        match !last_taint with
        | Some t ->
          List.iter
            (fun (nm, _) ->
              if nm <> "" then module_env := (nm, { t with t_via = nm :: t.t_via }) :: !module_env)
            it.Ast.it_names
        | None -> ()
      end)
    items;
  List.rev !findings
