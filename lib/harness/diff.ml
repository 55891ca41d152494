type finding = {
  file : string;
  kind : string;
  where : string;
  a : string;
  b : string;
}

type result = Same | Differs of finding

let split_lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let split_csv l = String.split_on_char ',' l

let differs ?(file = "") kind where a b = Differs { file; kind; where; a; b }

(* ---- generic: first differing line ---------------------------------------- *)

(* numbered as in the file: blank lines count, the final newline does not *)
let lines ?(file = "") a b =
  let physical s =
    match List.rev (String.split_on_char '\n' s) with "" :: rest -> List.rev rest | l -> List.rev l
  in
  let la = physical a and lb = physical b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> Same
    | x :: _, [] -> differs ~file "line" (Printf.sprintf "line %d" i) x "<absent>"
    | [], y :: _ -> differs ~file "line" (Printf.sprintf "line %d" i) "<absent>" y
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) xs ys
      else differs ~file "line" (Printf.sprintf "line %d" i) x y
  in
  go 1 la lb

(* ---- counters: "name value" files ----------------------------------------- *)

(* merge-walk the two name-sorted counter lists so a missing counter is
   named as such rather than cascading into every later line *)
let counters ?(file = "") a b =
  let parse s =
    split_lines s
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None
           else
             match String.index_opt l ' ' with
             | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
             | None -> Some (l, ""))
  in
  let rec go la lb =
    match (la, lb) with
    | [], [] -> Same
    | (n, v) :: _, [] -> differs ~file "counter" (Printf.sprintf "counter %s" n) v "<absent>"
    | [], (n, v) :: _ -> differs ~file "counter" (Printf.sprintf "counter %s" n) "<absent>" v
    | (na, va) :: xs, (nb, vb) :: ys ->
      let c = String.compare na nb in
      if c < 0 then differs ~file "counter" (Printf.sprintf "counter %s" na) va "<absent>"
      else if c > 0 then differs ~file "counter" (Printf.sprintf "counter %s" nb) "<absent>" vb
      else if String.equal va vb then go xs ys
      else differs ~file "counter" (Printf.sprintf "counter %s" na) va vb
  in
  go (parse a) (parse b)

(* ---- series CSV: name the first diverging window -------------------------- *)

let series_csv ?(file = "") a b =
  let la = split_lines a and lb = split_lines b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> Same
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) xs ys
    | la, lb ->
      let line = match (la, lb) with x :: _, _ -> x | _, y :: _ -> y | _ -> "" in
      let where =
        match split_csv line with
        | name :: "annotation" :: _ :: start :: _ ->
          Printf.sprintf "annotation %s at %sms" name start
        | name :: _kind :: window :: start :: _ ->
          Printf.sprintf "series %s window %s (start %sms)" name window start
        | _ -> Printf.sprintf "line %d" i
      in
      let side = function [] -> "<absent>" | x :: _ -> x in
      differs ~file "series" where (side la) (side lb)
  in
  go 1 la lb

(* ---- journey gap CSV: name the journey and the column --------------------- *)

let journeys ?(file = "") a b =
  let parse s =
    match split_lines s with
    | [] -> ([], [])
    | header :: rows ->
      ( split_csv header,
        List.map
          (fun r ->
            match split_csv r with
            | o :: q :: d :: _ as cells -> ((o, q, d), cells, r)
            | cells -> (("", "", ""), cells, r))
          rows )
  in
  let ha, ra = parse a and hb, rb = parse b in
  if ha <> hb then
    differs ~file "journey" "header" (String.concat "," ha) (String.concat "," hb)
  else
    let jname (o, q, d) = Printf.sprintf "journey dc%s#%s -> dc%s" o q d in
    (* rows are (origin, oseq, dst)-sorted on both sides: merge-walk *)
    let rec go ra rb =
      match (ra, rb) with
      | [], [] -> Same
      | (k, _, r) :: _, [] -> differs ~file "journey" (jname k) r "<absent>"
      | [], (k, _, r) :: _ -> differs ~file "journey" (jname k) "<absent>" r
      | (ka, ca, rowa) :: xs, (kb, cb, rowb) :: ys ->
        let c = compare ka kb in
        if c < 0 then differs ~file "journey" (jname ka) rowa "<absent>"
        else if c > 0 then differs ~file "journey" (jname kb) "<absent>" rowb
        else if String.equal rowa rowb then go xs ys
        else
          (* same journey, different numbers: name the first column off *)
          let rec col hs ca cb =
            match (hs, ca, cb) with
            | h :: _, x :: _, y :: _ when not (String.equal x y) -> (h, x, y)
            | _ :: hs, _ :: ca, _ :: cb -> col hs ca cb
            | _ -> ("row", rowa, rowb)
          in
          let h, x, y = col ha ca cb in
          differs ~file "journey" (Printf.sprintf "%s %s" (jname ka) h) x y
    in
    go ra rb

(* ---- dispatch ------------------------------------------------------------- *)

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

(* identical bytes short-circuit: no localizer splits a 45 MB trace twice
   just to find nothing *)
let content ~file a b =
  if String.equal a b then Same
  else
    match basename file with
    | "series.csv" -> series_csv ~file a b
    | "gap.csv" -> journeys ~file a b
    | base when ends_with ~suffix:"counters.txt" base || ends_with ~suffix:".counters" base ->
      counters ~file a b
    | _ -> lines ~file a b

let read_file path = In_channel.with_open_bin path In_channel.input_all

let files ~a ~b = content ~file:(basename a) (read_file a) (read_file b)

(* compare two artifact trees: every entry present on either side, keyed by
   its path relative to the roots and name-sorted per directory; one finding
   per differing file and per entry on one side only (a one-sided
   subdirectory is one finding, not one per file inside it) *)
let dirs a b =
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  let list d = if is_dir d then Array.to_list (Sys.readdir d) else [] in
  let rec walk rel a b =
    let fa = list a and fb = list b in
    List.concat_map
      (fun f ->
        let pa = Filename.concat a f and pb = Filename.concat b f in
        let name = if rel = "" then f else Filename.concat rel f in
        let side p = if is_dir p then "directory" else if Sys.file_exists p then "present" else "<absent>" in
        match (List.mem f fa && List.mem f fb, is_dir pa, is_dir pb) with
        | true, true, true -> walk name pa pb
        | true, false, false -> (
          match content ~file:name (read_file pa) (read_file pb) with
          | Same -> []
          | Differs d -> [ d ])
        | _ ->
          (* one side only, or a file on one side and a directory on the other *)
          let where = if is_dir pa || is_dir pb then "directory" else "file" in
          [ { file = name; kind = "missing"; where; a = side pa; b = side pb } ])
      (List.sort_uniq String.compare (fa @ fb))
  in
  walk "" a b

let render f =
  let where = if f.file = "" then f.where else Printf.sprintf "%s: %s" f.file f.where in
  Printf.sprintf "first divergence at %s\n  A: %s\n  B: %s" where f.a f.b
