type finding = { rule : string; file : string; line : int; message : string }

let r_unordered = "unordered-iteration"
let r_ambient = "ambient-nondeterminism"
let r_span = "span-pairing"
let r_counter = "counter-name-grammar"
let r_physeq = "physical-equality"
let r_taint = "nondeterminism-taint"
let r_layer = "layer-boundary"
let r_proto = "protocol-invariant"
let r_dead = "dead-export"
let r_unused_waiver = "unused-waiver"
let r_bad_waiver = "bad-waiver"

(* rules a waiver comment may name *)
let waivable =
  [ r_unordered; r_ambient; r_span; r_counter; r_physeq; r_taint; r_layer; r_proto; r_dead ]

let all_rules = waivable @ [ r_unused_waiver; r_bad_waiver ]

type span_site = { sp_file : string; sp_line : int; sp_kind : string option; sp_is_begin : bool }

type reg_pattern = { rp_file : string; rp_line : int; rp_pattern : string }

type file_facts = {
  ff_findings : finding list;
  ff_spans : span_site list;
  ff_patterns : reg_pattern list;
}

(* ---- R1: unordered iteration -------------------------------------------- *)

(* The heavy lifting moved to [Dataflow.classify_unordered]: a site is
   clean when the order provably cannot escape (sorted in the same
   statement, a commutative fold, a binding that only drives removals or
   is sorted before any read, an array fill sorted below). Everything the
   classifier cannot prove stays a finding. *)
let check_unordered ~file ~items toks =
  let tables = Dataflow.hash_tables toks in
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident && Dataflow.unordered_op ~tables t.text then
        match Dataflow.classify_unordered toks ~tables ~items i with
        | Dataflow.R1_safe _ -> ()
        | Dataflow.R1_unsafe ->
          out :=
            {
              rule = r_unordered;
              file;
              line = t.line;
              message =
                Printf.sprintf
                  "%s iterates in hash-table order and the order can escape; sort the result, \
                   reduce commutatively, or waive with a proof"
                  t.text;
            }
            :: !out)
    toks;
  List.rev !out

(* ---- R2: ambient nondeterminism ------------------------------------------ *)

let ambient_reason text =
  if text = "Unix.gettimeofday" || text = "Unix.time" || text = "Sys.time" then
    Some "reads the wall clock; simulated components must use Sim.Engine.now"
  else if text = "Hashtbl.hash" || Token.starts_with ~prefix:"Hashtbl.hash_param" text then
    Some "Hashtbl.hash is not stable across OCaml versions; use the FNV digest instead"
  else if Token.starts_with ~prefix:"Marshal." text then
    Some "Marshal output is not a stable wire format; use the JSONL/probe encodings"
  else if
    Token.starts_with ~prefix:"Random." text && not (Token.starts_with ~prefix:"Random.State." text)
  then Some "module-level Random is ambient global state; use Sim.Rng (or a seeded Random.State)"
  else None

let check_ambient ~file toks =
  let out = ref [] in
  Array.iter
    (fun (t : Token.t) ->
      if t.kind = Token.Ident then
        match ambient_reason t.text with
        | Some why ->
          out :=
            { rule = r_ambient; file; line = t.line; message = Printf.sprintf "%s: %s" t.text why }
            :: !out
        | None -> ())
    toks;
  List.rev !out

(* ---- R5: physical equality ---------------------------------------------- *)

let check_physeq ~file toks =
  let out = ref [] in
  Array.iter
    (fun (t : Token.t) ->
      if t.kind = Token.Punct && (t.text = "==" || t.text = "!=") then
        out :=
          {
            rule = r_physeq;
            file;
            line = t.line;
            message =
              Printf.sprintf
                "physical %s compares addresses, not values; use %s (or waive for an intentional \
                 identity check)"
                (if t.text = "==" then "equality (==)" else "inequality (!=)")
                (if t.text = "==" then "=" else "<>");
          }
          :: !out)
    toks;
  List.rev !out

(* ---- R3: span pairing (site collection) ---------------------------------- *)

let span_call text =
  if text = "Span.begin_" || String.ends_with ~suffix:".Span.begin_" text then Some true
  else if text = "Span.end_" || String.ends_with ~suffix:".Span.end_" text then Some false
  else None

let sk_of (t : Token.t) =
  if t.kind = Token.Ident && Token.starts_with ~prefix:"Sk_" (Token.last_component t.text) then
    Some (Token.last_component t.text)
  else None

(* Top-level-ish segments for the fallback kind search: a helper may bind
   [begin_ ~at] to a name and apply it to the [Sk_*] constructor a
   statement later (Proxy.span_label does), so when the statement window
   holds no constructor we look across the enclosing let-to-let segment. *)
let segment_bounds (toks : Token.t array) i =
  let n = Array.length toks in
  let seg_start (t : Token.t) =
    t.kind = Token.Ident && t.depth = 0
    && List.mem t.text [ "let"; "type"; "module"; "open"; "exception"; "include" ]
  in
  let a = ref i in
  while !a > 0 && not (seg_start toks.(!a)) do decr a done;
  let b = ref (i + 1) in
  while !b < n && not (seg_start toks.(!b)) do incr b done;
  (!a, !b)

let collect_spans ~file (toks : Token.t array) =
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident then
        match span_call t.text with
        | None -> ()
        | Some is_begin ->
          let kind =
            match List.find_map sk_of (Dataflow.window_fwd toks i) with
            | Some k -> Some k
            | None ->
              let a, b = segment_bounds toks i in
              let found = ref None in
              for j = a to b - 1 do
                if !found = None then found := sk_of toks.(j)
              done;
              !found
          in
          out := { sp_file = file; sp_line = t.line; sp_kind = kind; sp_is_begin = is_begin } :: !out)
    toks;
  List.rev !out

let pair_spans (sites : span_site list) =
  let module M = Map.Make (String) in
  let add is_begin m site =
    let b, e = Option.value ~default:([], []) (M.find_opt (Option.get site.sp_kind) m) in
    M.add (Option.get site.sp_kind)
      (if is_begin then (site :: b, e) else (b, site :: e))
      m
  in
  let unresolved, resolved = List.partition (fun s -> s.sp_kind = None) sites in
  let m =
    List.fold_left (fun m s -> add s.sp_is_begin m s) M.empty resolved
  in
  let findings = ref [] in
  List.iter
    (fun s ->
      findings :=
        {
          rule = r_span;
          file = s.sp_file;
          line = s.sp_line;
          message =
            Printf.sprintf
              "cannot resolve the span kind at this Span.%s call; name the Sk_* constructor in \
               the same statement"
              (if s.sp_is_begin then "begin_" else "end_");
        }
        :: !findings)
    unresolved;
  M.iter
    (fun kind (begins, ends) ->
      let report side (s : span_site) other =
        findings :=
          {
            rule = r_span;
            file = s.sp_file;
            line = s.sp_line;
            message =
              Printf.sprintf
                "Span_%s of %s has no matching Span_%s call site anywhere in the scanned tree — \
                 the %s span can never close, breaking the tiling invariant"
                side kind other kind;
          }
          :: !findings
      in
      if begins <> [] && ends = [] then List.iter (fun s -> report "begin" s "end") begins;
      if ends <> [] && begins = [] then List.iter (fun s -> report "end" s "begin") ends)
    m;
  List.rev !findings

(* ---- R4: counter-name grammar -------------------------------------------- *)

let registration_call text =
  match String.split_on_char '.' text with
  | [ _; "Registry"; ("counter" | "register_pull") ]
  | [ "Registry"; ("counter" | "register_pull") ] ->
    true
  | _ -> false

(* windowed-series registration sites share the registry's name grammar
   plus one extra rule: the literal must carry the "series." prefix the
   runtime enforces, so a typo fails at lint time, not mid-run *)
let series_registration_call text =
  match String.split_on_char '.' text with
  | [ _; "Series"; ("counter" | "sample" | "hist") ]
  | [ "Series"; ("counter" | "sample" | "hist") ] ->
    true
  | _ -> false

let name_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '*' || c = '>' || c = '-'

(* "%d" → "*": format literals name a shape, not a single counter *)
let format_to_glob s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' && !i + 1 < n then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && not (String.contains "diuxXosfeEgGbBcdLln%" s.[!j])
      do
        incr j
      done;
      Buffer.add_char buf '*';
      i := !j + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let sprintf_like text =
  List.mem (Token.last_component text) [ "sprintf"; "asprintf"; "format" ]

(* The name argument of a registration call, as a glob: string literals
   keep their text (format specifiers become [*]), spliced expressions
   become [*]. [Registry.counter reg ("span." ^ k ^ ".us")] → [span.*.us].
   Non-application occurrences (type annotations, [val] signatures) yield
   [None]: their next token is punctuation, not an argument. *)
let extract_pattern (toks : Token.t array) i =
  let n = Array.length toks in
  (* skip one argument (the registry handle): an ident or a paren group *)
  let skip_arg j =
    if j >= n then None
    else
      match toks.(j).kind with
      | Token.Punct when toks.(j).text = "(" ->
        let d = toks.(j).depth in
        let k = ref (j + 1) in
        while !k < n && not (toks.(!k).kind = Token.Punct && toks.(!k).text = ")" && toks.(!k).depth = d) do
          incr k
        done;
        Some (!k + 1)
      | Token.Ident -> Some (j + 1)
      | _ -> None
  in
  match skip_arg (i + 1) with
  | None -> None
  | Some j when j >= n -> None
  | Some j -> (
    match toks.(j) with
    | { kind = Token.String; text; line; _ } ->
      Some (line, [ (line, text) ], format_to_glob text)
    | { kind = Token.Punct; text = "("; depth; _ } ->
      let pieces = ref [] in
      let glob = Buffer.create 16 in
      let star () =
        if Buffer.length glob = 0 || Buffer.nth glob (Buffer.length glob - 1) <> '*' then
          Buffer.add_char glob '*'
      in
      let k = ref (j + 1) in
      let fin = ref false in
      let sprintf_mode = ref false in
      while (not !fin) && !k < n do
        let t = toks.(!k) in
        if t.kind = Token.Punct && t.text = ")" && t.depth = depth then fin := true
        else begin
          (match t.kind with
          | Token.String ->
            pieces := (t.line, t.text) :: !pieces;
            if not !sprintf_mode then Buffer.add_string glob (format_to_glob t.text)
            else if Buffer.length glob = 0 then Buffer.add_string glob (format_to_glob t.text)
          | Token.Ident when sprintf_like t.text -> sprintf_mode := true
          | Token.Ident | Token.Number | Token.Char ->
            if not !sprintf_mode then star ()
          | Token.Label -> fin := true
          | Token.Punct -> ());
          incr k
        end
      done;
      if Buffer.length glob = 0 then Some (toks.(j).line, List.rev !pieces, "*")
      else Some (toks.(j).line, List.rev !pieces, Buffer.contents glob)
    | { kind = Token.Ident; line; _ } -> Some (line, [], "*")
    | _ -> None)

let check_counters ~file (toks : Token.t array) =
  let findings = ref [] in
  let patterns = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident && (registration_call t.text || series_registration_call t.text) then
        match extract_pattern toks i with
        | None -> ()
        | Some (line, pieces, pattern) ->
          List.iter
            (fun (pline, piece) ->
              let bad = String.exists (fun c -> not (name_char c)) (format_to_glob piece) in
              if bad then
                findings :=
                  {
                    rule = r_counter;
                    file;
                    line = pline;
                    message =
                      Printf.sprintf
                        "counter name literal %S contains characters outside [a-z0-9_.*>-]" piece;
                  }
                  :: !findings)
            pieces;
          if pattern <> "*" && not (String.contains pattern '.') then
            findings :=
              {
                rule = r_counter;
                file;
                line;
                message =
                  Printf.sprintf
                    "counter name %S is not dotted; names follow the family.metric convention"
                    pattern;
              }
              :: !findings;
          if
            series_registration_call t.text
            && pattern <> "*"
            && not (String.length pattern >= 7 && String.sub pattern 0 7 = "series.")
          then
            findings :=
              {
                rule = r_counter;
                file;
                line;
                message =
                  Printf.sprintf
                    "series name %S must start with \"series.\" (Stats.Series rejects it at \
                     runtime)"
                    pattern;
              }
              :: !findings;
          patterns := { rp_file = file; rp_line = line; rp_pattern = pattern } :: !patterns)
    toks;
  (List.rev !findings, List.rev !patterns)

let rec glob_match p s pi si =
  let pn = String.length p and sn = String.length s in
  if pi = pn then si = sn
  else if p.[pi] = '*' then glob_match p s (pi + 1) si || (si < sn && glob_match p s pi (si + 1))
  else si < sn && p.[pi] = s.[si] && glob_match p s (pi + 1) (si + 1)

let matches ~pattern name = glob_match pattern name 0 0

(* Baseline coverage: every counter CI's smoke gate checks must still have
   a registration site whose name shape covers it. Catches a rename (or a
   deleted subsystem) at lint time instead of at gate time. *)
let check_baseline ~file lines patterns =
  let findings = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let name =
          match String.index_opt line ' ' with Some sp -> String.sub line 0 sp | None -> line
        in
        if not (List.exists (fun p -> matches ~pattern:p.rp_pattern name) patterns) then
          findings :=
            {
              rule = r_counter;
              file;
              line = lineno;
              message =
                Printf.sprintf
                  "baseline counter %S matches no registration site in the scanned tree — stale \
                   baseline or lost registration"
                  name;
            }
            :: !findings
      end)
    lines;
  List.rev !findings

(* ---- R6: nondeterminism taint --------------------------------------------- *)

let check_taint ~file toks =
  List.map
    (fun (tf : Dataflow.taint_finding) ->
      {
        rule = r_taint;
        file;
        line = tf.Dataflow.tf_line;
        message =
          Printf.sprintf "%s (line %d) reaches %s%s; derive the value deterministically or waive \
                          with a proof it cannot vary"
            tf.Dataflow.tf_source tf.Dataflow.tf_src_line tf.Dataflow.tf_sink
            (match tf.Dataflow.tf_via with
            | [] -> ""
            | via -> Printf.sprintf " through %s" (String.concat " -> " via));
      })
    (Dataflow.check_taint toks)

(* ---- R8: protocol-invariant ship sites ------------------------------------ *)

(* Every bulk shipment must (a) pass [~size_bytes] so Meta_bytes can
   attribute it, (b) sit in a definition that records [Stats.Meta_bytes]
   (the PR 7 accounting convention), and — in [lib/core], where shipments
   cross reconfiguration epochs — (c) thread an epoch. The definition of
   the [ship] primitive itself is exempt from (b) and (c): it is the thing
   call sites account around. The fan-out primitives [ship_update] and
   [broadcast] record Stats.Meta_bytes themselves, so their call sites are
   exempt from (b) and their definitions, which forward whatever message
   the caller built, from (c). *)
let fan_out_primitives = [ "ship_update"; "broadcast" ]

let ship_site (toks : Token.t array) i (t : Token.t) =
  t.kind = Token.Ident
  && ((List.mem (Token.last_component t.text) ("ship" :: fan_out_primitives)
       && not
            (i > 0
            && toks.(i - 1).kind = Token.Ident
            && List.mem toks.(i - 1).text [ "let"; "and"; "val" ]))
     || (Token.has_component "Link" t.text
        && Token.last_component t.text = "send"
        && List.exists
             (fun (w : Token.t) -> w.kind = Token.Ident && Token.has_component "bulk" w.text)
             (Dataflow.statement_window toks i)))

let item_mentions_meta toks (it : Ast.item) =
  Dataflow.slice_exists toks ~from:it.Ast.it_start ~upto:it.Ast.it_stop (fun t ->
      t.kind = Token.Ident && Token.has_component "Meta_bytes" t.text)

let item_mentions_epoch toks (it : Ast.item) =
  Dataflow.slice_exists toks ~from:it.Ast.it_start ~upto:it.Ast.it_stop (fun t ->
      match t.kind with
      | Token.Ident -> Token.has_component "epoch" t.text
      | Token.Label -> t.text = "~epoch" || t.text = "?epoch"
      | _ -> false)

let check_ship ~file ~items toks =
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if ship_site toks i t then begin
        let flag message = out := { rule = r_proto; file; line = t.line; message } :: !out in
        if
          not
            (List.exists
               (fun (w : Token.t) -> w.kind = Token.Label && w.text = "~size_bytes")
               (Dataflow.window_fwd toks i))
        then
          flag
            (Printf.sprintf
               "bulk send %s does not pass ~size_bytes — metadata-bytes accounting cannot \
                attribute this shipment"
               t.text);
        match Ast.item_containing items i with
        | None -> ()
        | Some it ->
          let defines name = List.exists (fun (nm, _) -> nm = name) it.Ast.it_names in
          let defines_ship = defines "ship" in
          let fans_out = List.mem (Token.last_component t.text) fan_out_primitives in
          if (not defines_ship) && (not fans_out) && not (item_mentions_meta toks it) then
            flag
              (Printf.sprintf
                 "ship site %s sits in a definition that never records Stats.Meta_bytes — the \
                  bytes-per-op gate undercounts this channel"
                 t.text);
          if
            Token.starts_with ~prefix:"lib/core/" file
            && (not defines_ship)
            && (not (List.exists defines fan_out_primitives))
            && not (item_mentions_epoch toks it)
          then
            flag
              (Printf.sprintf
                 "bulk send %s in lib/core does not thread an epoch — the reconfiguration drain \
                  barrier cannot classify this shipment"
                 t.text)
      end)
    toks;
  List.rev !out

(* ---- R8 cross-file half: every probe kind has a consumer ------------------- *)

let probe_consumer_suffixes = [ "faults/checker.ml"; "harness/journey.ml"; "harness/chrome.ml" ]

let check_probe_consumers sources =
  match
    List.find_opt (fun (f, _) -> String.ends_with ~suffix:"simulator/probe.mli" f) sources
  with
  | None -> []
  | Some (pfile, ptoks) ->
    let ctors = Ast.variant_constructors ptoks ~type_name:"Kind.t" in
    let consumers =
      List.filter
        (fun (f, _) ->
          List.exists (fun s -> String.ends_with ~suffix:s f) probe_consumer_suffixes)
        sources
    in
    List.filter_map
      (fun (c, line) ->
        let used =
          List.exists
            (fun (_, toks) ->
              Array.exists
                (fun (t : Token.t) ->
                  t.kind = Token.Ident && Token.last_component t.text = c)
                toks)
            consumers
        in
        if used then None
        else
          Some
            {
              rule = r_proto;
              file = pfile;
              line;
              message =
                Printf.sprintf
                  "Probe.Kind.%s has no consumer in Faults.Checker, Harness.Journey or \
                   Harness.Chrome — an event nobody checks or renders is dead telemetry"
                  c;
            })
      ctors

(* ---- R7: layer boundaries -------------------------------------------------- *)

let head_component text =
  match String.index_opt text '.' with None -> text | Some d -> String.sub text 0 d

let check_layers ~layers ~libs sources =
  let findings = ref [] in
  List.iter
    (fun (d : Layers.deny) ->
      let from_dirs = Layers.dirs_of layers d.Layers.d_from in
      let from_files =
        List.filter
          (fun (f, _) -> List.exists (fun dir -> Modgraph.under_dir ~dir f) from_dirs)
          sources
      in
      List.iter
        (fun spec ->
          match spec with
          | Layers.S_prefix p ->
            let bare =
              if String.ends_with ~suffix:"." p then String.sub p 0 (String.length p - 1) else p
            in
            List.iter
              (fun (file, toks) ->
                Array.iter
                  (fun (t : Token.t) ->
                    if
                      t.kind = Token.Ident
                      && (t.text = bare || t.text = p || Token.starts_with ~prefix:(bare ^ ".") t.text)
                    then
                      findings :=
                        {
                          rule = r_layer;
                          file;
                          line = t.line;
                          message =
                            Printf.sprintf
                              "layer %S may not reach %s (ci/layers.txt); offending identifier: %s"
                              d.Layers.d_from p t.text;
                        }
                        :: !findings)
                  toks)
              from_files
          | Layers.S_layer target ->
            let target_dirs = Layers.dirs_of layers target in
            let target_mods =
              List.map Modgraph.wrapped_module (Modgraph.libs_under libs ~dirs:target_dirs)
            in
            (* identifier edges, resolving [module A = Target.X] aliases *)
            List.iter
              (fun (file, toks) ->
                let aliases =
                  List.filter_map
                    (fun (a, p) ->
                      if List.mem (head_component p) target_mods then Some a else None)
                    (Ast.module_aliases toks)
                in
                Array.iter
                  (fun (t : Token.t) ->
                    if t.kind = Token.Ident then begin
                      let head = head_component t.text in
                      if List.mem head target_mods || List.mem head aliases then
                        findings :=
                          {
                            rule = r_layer;
                            file;
                            line = t.line;
                            message =
                              Printf.sprintf
                                "layer %S may not reach layer %S (ci/layers.txt); offending \
                                 identifier: %s"
                                d.Layers.d_from target t.text;
                          }
                          :: !findings
                    end)
                  toks)
              from_files;
            (* dune dependency edges, so the ban holds even for code the
               identifier scan cannot see *)
            let target_libs =
              List.map (fun (l : Modgraph.lib) -> l.Modgraph.lib_name)
                (Modgraph.libs_under libs ~dirs:target_dirs)
            in
            List.iter
              (fun (l : Modgraph.lib) ->
                List.iter
                  (fun dep ->
                    if List.mem dep target_libs then
                      findings :=
                        {
                          rule = r_layer;
                          file = l.Modgraph.lib_dir ^ "/dune";
                          line = 1;
                          message =
                            Printf.sprintf
                              "layer %S may not depend on layer %S (ci/layers.txt), but library \
                               %s lists %s in (libraries …)"
                              d.Layers.d_from target l.Modgraph.lib_name dep;
                        }
                        :: !findings)
                  l.Modgraph.lib_deps)
              (Modgraph.libs_under libs ~dirs:from_dirs))
        d.Layers.d_specs)
    layers.Layers.denies;
  List.rev !findings

(* ---- R9: dead exports and .mli drift --------------------------------------- *)

(* Per-file reference index: (component, last component) pairs of every
   dotted identifier, plus opens/aliases/includes, so the per-val check
   is a hash lookup instead of a token scan. *)
type use_info = {
  ui_pairs : (string * string, unit) Hashtbl.t;
  ui_lasts : (string, unit) Hashtbl.t;
  ui_opens : string list;  (* last components of opened paths *)
  ui_aliases : (string * string) list;  (* alias -> head of the aliased path *)
  ui_includes : string list;  (* last components of included paths *)
}

let use_info (toks : Token.t array) =
  let pairs = Hashtbl.create 256 in
  let lasts = Hashtbl.create 256 in
  let includes = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident then begin
        let comps = String.split_on_char '.' t.text in
        let last = List.nth comps (List.length comps - 1) in
        Hashtbl.replace lasts last ();
        List.iter (fun c -> Hashtbl.replace pairs (c, last) ()) comps;
        if t.text = "include" && i + 1 < Array.length toks && toks.(i + 1).kind = Token.Ident then
          includes := Token.last_component toks.(i + 1).text :: !includes
      end
      else if t.kind = Token.Label && String.length t.text > 1 then
        (* a punned label argument [~x] under an [open] is a use of [x] *)
        Hashtbl.replace lasts (String.sub t.text 1 (String.length t.text - 1)) ())
    toks;
  {
    ui_pairs = pairs;
    ui_lasts = lasts;
    ui_opens = List.map Token.last_component (Ast.opens toks);
    ui_aliases = List.map (fun (a, p) -> (a, head_component p)) (Ast.module_aliases toks);
    ui_includes = !includes;
  }

let module_of_path f = String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* the module types an interface includes, as (module of the path or ""
   for a local one, type name): [include Common.S with type t := t] gives
   ("Common", "S") *)
let mli_included_types (toks : Token.t array) =
  let out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if t.kind = Token.Ident && t.text = "include" && i + 1 < Array.length toks then begin
        let p = toks.(i + 1) in
        if p.kind = Token.Ident then
          match List.rev (String.split_on_char '.' p.text) with
          | ty :: m :: _ -> out := (m, ty) :: !out
          | [ ty ] -> out := ("", ty) :: !out
          | [] -> ()
      end)
    toks;
  List.rev !out

let check_dead_exports ~sources ~use_sources =
  let findings = ref [] in
  let infos = List.map (fun (f, toks) -> (f, toks, use_info toks)) (sources @ use_sources) in
  let included =
    List.sort_uniq String.compare (List.concat_map (fun (_, _, ui) -> ui.ui_includes) infos)
  in
  (* R9a: an exported val nobody outside the module references *)
  List.iter
    (fun (mli_file, mli_toks) ->
      if Filename.check_suffix mli_file ".mli" then begin
        let m = module_of_path mli_file in
        let own_ml = Filename.remove_extension mli_file ^ ".ml" in
        let others = List.filter (fun (f, _, _) -> f <> mli_file && f <> own_ml) infos in
        List.iter
          (fun (subpath, name, line) ->
            let want = if subpath = "" then m else Token.last_component subpath in
            (* [include]d modules re-export everything; references cannot
               be attributed, so stay silent *)
            if (not (List.mem m included)) && not (List.mem want included) then begin
              let referenced =
                List.exists
                  (fun (_, _, ui) ->
                    Hashtbl.mem ui.ui_pairs (want, name)
                    || List.exists
                         (fun (a, tgt) -> tgt = want && Hashtbl.mem ui.ui_pairs (a, name))
                         ui.ui_aliases
                    || (List.mem want ui.ui_opens && Hashtbl.mem ui.ui_lasts name))
                  others
              in
              if not referenced then
                findings :=
                  {
                    rule = r_dead;
                    file = mli_file;
                    line;
                    message =
                      Printf.sprintf
                        "val %s%s is never referenced outside its module — delete the export (and \
                         the value, if nothing inside uses it) or waive with the planned caller"
                        (if subpath = "" then "" else subpath ^ ".")
                        name;
                  }
                  :: !findings
            end)
          (Ast.mli_vals mli_toks)
      end)
    sources;
  (* R9b: a top-level value the .mli hides and the .ml itself never uses *)
  List.iter
    (fun (ml_file, ml_toks) ->
      if Filename.check_suffix ml_file ".ml" then
        match
          List.find_opt (fun (f, _) -> f = Filename.remove_extension ml_file ^ ".mli") sources
        with
        | None -> ()
        | Some (_, mli_toks) ->
          let has_include =
            Array.exists (fun (t : Token.t) -> t.kind = Token.Ident && t.text = "include") ml_toks
          in
          if not has_include then begin
            (* an interface that [include]s a module type of the scanned
               tree ([include Common.S with …]) exports that type's vals *)
            let included_vals =
              List.concat_map
                (fun (path, ty) ->
                  List.concat_map
                    (fun (f, toks) ->
                      if
                        Filename.check_suffix f ".mli"
                        && (module_of_path f = path
                           || (path = "" && f = Filename.remove_extension ml_file ^ ".mli"))
                      then Ast.module_type_vals toks ~name:ty
                      else [])
                    sources)
                (mli_included_types mli_toks)
            in
            let exported =
              List.map (fun (_, n, _) -> n) (Ast.mli_vals mli_toks) @ included_vals
            in
            List.iter
              (fun (it : Ast.item) ->
                (* a multi-name item is a [let rec ... and ...] group whose
                   members call each other inside the item's own range —
                   sibling calls are real uses we cannot tell apart from
                   self-recursion, so stay silent *)
                if it.Ast.it_kind = Ast.K_let && List.length it.Ast.it_names = 1 then
                  List.iter
                    (fun (name, line) ->
                      if name <> "" && name.[0] <> '_' && not (List.mem name exported) then begin
                        let used = ref false in
                        Array.iteri
                          (fun j (t : Token.t) ->
                            if
                              (j < it.Ast.it_start || j >= it.Ast.it_stop)
                              && ((t.kind = Token.Ident && head_component t.text = name)
                                 (* punned label argument [~name] passes the value *)
                                 || (t.kind = Token.Label
                                    && String.length t.text > 1
                                    && String.sub t.text 1 (String.length t.text - 1) = name))
                            then used := true)
                          ml_toks;
                        if not !used then
                          findings :=
                            {
                              rule = r_dead;
                              file = ml_file;
                              line;
                              message =
                                Printf.sprintf
                                  "top-level value %s is hidden by the .mli and never used in \
                                   this file — dead code, or an export the interface lost"
                                  name;
                            }
                            :: !findings
                      end)
                    it.Ast.it_names)
              (Ast.items ml_toks)
          end)
    sources;
  List.rev !findings

(* ---- per-file driver ------------------------------------------------------ *)

let analyze_file ~file toks =
  let items = Ast.items toks in
  let counter_findings, patterns = check_counters ~file toks in
  {
    ff_findings =
      check_unordered ~file ~items toks
      @ check_ambient ~file toks @ check_physeq ~file toks @ counter_findings
      @ check_taint ~file toks @ check_ship ~file ~items toks;
    ff_spans = collect_spans ~file toks;
    ff_patterns = patterns;
  }
