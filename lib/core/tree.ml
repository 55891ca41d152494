type t = {
  n : int;
  adj : int list array;
  edges : (int * int) list;
  attach : int array;
  dcs_at : int list array;
  next : int array array; (* next.(a).(b) = neighbor of a toward b; -1 on diagonal *)
  edge_hop : int array array; (* edge_hop.(a).(b) = hop number of a -> b; -1 off the edges *)
  behind : int list array; (* by edge hop number: dcs on the far side *)
}

let bfs_parents adj root =
  let n = Array.length adj in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let q = Queue.create () in
  visited.(root) <- true;
  Queue.push root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          Queue.push v q
        end)
      adj.(u)
  done;
  (parent, visited)

let create ~n_serializers ~edges ~attach =
  let n = n_serializers in
  if n < 1 then invalid_arg "Tree.create: need at least one serializer";
  if List.length edges <> n - 1 then invalid_arg "Tree.create: a tree over n nodes has n-1 edges";
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Tree.create: invalid edge";
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  let _, visited = bfs_parents adj 0 in
  if not (Array.for_all Fun.id visited) then invalid_arg "Tree.create: disconnected";
  Array.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Tree.create: attachment out of range")
    attach;
  let n_dcs = Array.length attach in
  let dcs_at = Array.make n [] in
  for dc = n_dcs - 1 downto 0 do
    dcs_at.(attach.(dc)) <- dc :: dcs_at.(attach.(dc))
  done;
  (* next hops: BFS from every destination; next.(a).(dst) follows parents. *)
  let next = Array.make_matrix n n (-1) in
  for dst = 0 to n - 1 do
    let parent, _ = bfs_parents adj dst in
    for a = 0 to n - 1 do
      if a <> dst then next.(a).(dst) <- parent.(a)
    done
  done;
  (* edge k is hops 2k (a -> b) and 2k + 1 (b -> a); a tree's n - 1 edges
     are distinct once it is connected *)
  let edge_hop = Array.make_matrix n n (-1) in
  List.iteri
    (fun k (a, b) ->
      edge_hop.(a).(b) <- 2 * k;
      edge_hop.(b).(a) <- (2 * k) + 1)
    edges;
  let behind = Array.make (2 * (n - 1)) [] in
  List.iter
    (fun (x, y) ->
      List.iter
        (fun (a, b) ->
          behind.(edge_hop.(a).(b)) <-
            List.filter
              (fun dc ->
                let s = attach.(dc) in
                s <> a && next.(a).(s) = b)
              (List.init n_dcs Fun.id))
        [ (x, y); (y, x) ])
    edges;
  { n; adj; edges; attach; dcs_at; next; edge_hop; behind }

let star ~n_dcs = create ~n_serializers:1 ~edges:[] ~attach:(Array.make n_dcs 0)
let n_serializers t = t.n
let n_dcs t = Array.length t.attach
let edges t = t.edges
let neighbors t s = t.adj.(s)
let serializer_of t ~dc = t.attach.(dc)
let dcs_at t s = t.dcs_at.(s)

let next_hop t ~src ~dst =
  if src = dst then invalid_arg "Tree.next_hop: src = dst";
  t.next.(src).(dst)

let serializer_path t ~src_dc ~dst_dc =
  let src = t.attach.(src_dc) and dst = t.attach.(dst_dc) in
  let rec walk s acc = if s = dst then List.rev (s :: acc) else walk t.next.(s).(dst) (s :: acc) in
  walk src []

let n_hops t = (2 * (t.n - 1)) + Array.length t.attach

let find_edge_hop t ~from ~via =
  if from >= 0 && from < t.n && via >= 0 && via < t.n then t.edge_hop.(from).(via) else -1

let edge_hop t ~from ~via =
  let h = find_edge_hop t ~from ~via in
  if h < 0 then invalid_arg "Tree.edge_hop: not an edge";
  h

let dc_hop t ~dc = (2 * (t.n - 1)) + dc

let dcs_behind t ~from ~via =
  let h = find_edge_hop t ~from ~via in
  if h < 0 then invalid_arg "Tree.dcs_behind: not an edge";
  t.behind.(h)

let routes_toward t ~at ~dc =
  let s = t.attach.(dc) in
  if s = at then None else Some t.next.(at).(s)

let pp ppf t =
  Format.fprintf ppf "tree(%d serializers; edges:" t.n;
  List.iter (fun (a, b) -> Format.fprintf ppf " %d-%d" a b) t.edges;
  Format.fprintf ppf "; attach:";
  Array.iteri (fun dc s -> Format.fprintf ppf " dc%d→s%d" dc s) t.attach;
  Format.fprintf ppf ")"
